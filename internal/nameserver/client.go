package nameserver

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"namecoherence/internal/core"
	"namecoherence/internal/lru"
)

// RemoteError is a resolution failure reported by the server.
type RemoteError struct {
	// Msg is the server-side error message.
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "remote: " + e.Msg }

// ErrClientClosed reports a call against a closed Client.
var ErrClientClosed = errors.New("nameserver: client closed")

// clientWriteTimeout bounds each request write so a peer that stops
// reading cannot pin a writer forever. Generous on purpose: a request is
// small, so a write that takes this long means a dead peer, not a slow
// one. With a per-call timeout configured the write bound tightens to it.
const clientWriteTimeout = time.Minute

// pendingCall is one round-trip's state, parked in the pending table
// until a reader delivers the response tagged with its ID. Call states
// are reused: release returns one to its client's free list with every
// buffer kept, so a warm client's round-trip allocates nothing of its own.
type pendingCall struct {
	req  request
	resp response
	err  error
	// done carries one completion signal per use, sent by whoever removes
	// the call from pending. Every path through issue and collect consumes
	// it before the state is released, so no signal outlives its use.
	done     chan struct{}
	deadline time.Time // the call's expiry; zero without a call timeout
	// timer bounds contended waits under a call timeout (nil without one).
	// armed: Reset during this use; fired: its tick was received.
	timer        *time.Timer
	armed, fired bool
	wire         []string     // backing array of req.Path, or of req.Paths' windows
	hdrs         [][]string   // req.Paths' headers
	results      []result     // resp.Results' backing array
	next         *pendingCall // free-list link; guarded by the client's pmu
}

// arm resets pc's timer to fire at deadline and returns its channel. Only
// contended waits arm it, so the serial case never touches the runtime
// timer.
func (pc *pendingCall) arm(deadline time.Time) <-chan time.Time {
	pc.stopTimer()
	pc.timer.Reset(time.Until(deadline))
	pc.armed = true
	return pc.timer.C
}

// stopTimer disarms pc's timer and drains a tick nobody received, so the
// next Reset starts clean. go.mod's language version keeps the pre-1.23
// timer channel: a tick may already sit in the channel — or be on its way
// — when Stop reports false, so the drain blocks for it rather than poll.
func (pc *pendingCall) stopTimer() {
	if !pc.armed {
		return
	}
	if !pc.timer.Stop() && !pc.fired {
		<-pc.timer.C
	}
	pc.armed, pc.fired = false, false
}

// Client is a connection to a name server with an optional resolution
// cache. One Client multiplexes any number of concurrent callers over a
// single connection: each call is tagged with a fresh ID and parked in a
// pending table, then the caller itself encodes the request under a
// capacity-1 write token — when other callers are already queued for the
// token the flush is left to the last of them, so a burst of pipelined
// requests rides one syscall. Responses come back in whatever order the
// server finished them and are dispatched by tag. Reading is
// leader/followers: one waiting caller at a time holds the read token and
// decodes for everyone, so the serial case pays no goroutine handoffs at
// all. A leader stuck in a read cannot honor its own timer, so with
// WithTimeout the leader arms the connection's read deadline with its
// call's expiry instead — a deadline-failed read poisons the client
// exactly as an expired call would have (see lead). The pending table lives under its own
// short-section mutex and the cache and counters under another, so Stats
// and cache hits never wait behind a slow server and no mutex is ever
// held across wire I/O (lockheld).
type Client struct {
	conn    net.Conn
	bw      *bufio.Writer // guarded by wtoken
	br      *bufio.Reader // guarded by rtoken (and by NewClient during negotiation)
	enc     *gob.Encoder  // guarded by wtoken; nil unless the codec is gob
	dec     *gob.Decoder  // guarded by rtoken; nil unless the codec is gob
	codec   Codec         // immutable after NewClient (negotiation settles it)
	timeout time.Duration // per-call bound; immutable after the options run

	wtoken    chan struct{} // capacity 1; held while encoding and flushing
	rtoken    chan struct{} // capacity 1; held by the leading reader
	wq        atomic.Int32  // declared write intents; >0 after our encode elides our flush
	wdeadline time.Time     // armed write deadline; guarded by wtoken
	wbuf      []byte        // binary encode scratch; guarded by wtoken
	rresp     response      // lead's reusable decode target; guarded by rtoken
	rbuf      []byte        // binary frame scratch; guarded by rtoken
	errs      strIntern     // decode-side error-string intern table; guarded by rtoken

	closeOnce sync.Once

	// pmu guards the multiplexing table only; never held across I/O.
	pmu     sync.Mutex
	pending map[uint64]*pendingCall
	free    *pendingCall // released call states, linked through next
	nextID  uint64
	broken  error // sticky: once the stream is unusable, new calls fail fast

	mu       sync.Mutex // guards the fields below; never held across I/O
	cache    *lru.Cache[string, core.Entity]
	coherent bool
	rev      uint64
	hits     int
	misses   int
	purges   int
	// subscription state (see Subscribe): push frames are consumed by a
	// standing reader goroutine, joined by Close via readerWG.
	subscribed    bool
	onInval       func(rev uint64)
	invalidations int

	readerWG sync.WaitGroup
}

// ClientOption configures a Client.
type ClientOption interface {
	apply(*Client)
}

type cacheOption int

func (o cacheOption) apply(c *Client) {
	c.cache = lru.New[string, core.Entity](int(o))
}

// WithCache enables a client-side LRU resolution cache of at most n
// entries. The cache is never invalidated; it models the
// (coherence-agnostic) name caches common in directory services.
func WithCache(n int) ClientOption {
	return cacheOption(n)
}

type coherentCacheOption int

func (o coherentCacheOption) apply(c *Client) {
	c.cache = lru.New[string, core.Entity](int(o))
	c.coherent = true
}

// WithCoherentCache enables a revision-tracked LRU cache of at most n
// entries: every response carries the server's binding revision, the
// whole cache is purged when a response shows the revision advanced, and
// only entities fetched at the current revision are stored (see
// admitRevision for why both halves are needed once responses complete
// out of order). Cache staleness is thus bounded by one round-trip after
// a server-side change (pair with Server.WatchExport for automatic
// bumping).
func WithCoherentCache(n int) ClientOption {
	return coherentCacheOption(n)
}

type timeoutOption time.Duration

func (o timeoutOption) apply(c *Client) { c.timeout = time.Duration(o) }

type codecOption Codec

func (o codecOption) apply(c *Client) { c.codec = Codec(o) }

// WithCodec pins the client's wire codec. The default, CodecBinary,
// negotiates: the client offers the binary codec and falls back to gob
// if the server insists (see WithServerCodec). WithCodec(CodecGob)
// skips the offer entirely and speaks raw gob from the first byte —
// wire-identical to a pre-codec client, the escape hatch for servers
// that predate the negotiation.
func WithCodec(codec Codec) ClientOption {
	return codecOption(codec)
}

// Codec reports the codec this connection settled on. Immutable once
// NewClient returns.
func (c *Client) Codec() Codec { return c.codec }

// WithTimeout bounds every call: a per-call timer starts when the call is
// issued and, on expiry, fails that call with a timeout error (satisfying
// errors.Is(err, os.ErrDeadlineExceeded) and net.Error's Timeout) and
// poisons the client — the abandoned response may still arrive and is
// discarded, but the connection's pipeline can no longer be trusted to be
// drained promptly, so subsequent calls fail fast and the caller must
// discard the client. Per-call timers replace conn.SetDeadline, which
// would race across concurrent calls sharing the connection.
func WithTimeout(d time.Duration) ClientOption {
	return timeoutOption(d)
}

// NewClient wraps an established connection. The client spawns no
// goroutines: callers themselves take turns decoding (see call).
//
// Unless WithCodec(CodecGob) pins the legacy stream, NewClient runs the
// one-byte codec negotiation before returning (the server must already
// be serving the connection). A failed negotiation poisons the client —
// every call reports the failure — rather than error out here, keeping
// the signature; Dial surfaces the error directly.
func NewClient(conn net.Conn, opts ...ClientOption) *Client {
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriter(conn),
		br:      bufio.NewReader(conn),
		wtoken:  make(chan struct{}, 1),
		rtoken:  make(chan struct{}, 1),
		pending: make(map[uint64]*pendingCall),
	}
	for _, o := range opts {
		o.apply(c)
	}
	if c.codec == CodecBinary {
		if err := c.negotiate(); err != nil {
			c.fail(fmt.Errorf("codec negotiation: %w", err))
		}
	}
	if c.codec == CodecGob {
		c.enc = gob.NewEncoder(c.bw)
		c.dec = gob.NewDecoder(c.br)
	}
	return c
}

// negotiate offers the binary codec and adopts the server's one-byte
// choice. The handshake is bounded by the call timeout (or the dial
// default): a server that never answers — or a pre-codec server that
// chokes on the magic byte — must fail the client promptly, not hang it.
func (c *Client) negotiate() error {
	d := defaultDialTimeout
	if c.timeout > 0 && c.timeout < d {
		d = c.timeout
	}
	_ = c.conn.SetDeadline(time.Now().Add(d))
	hello := [1]byte{binaryMagic}
	if _, err := c.conn.Write(hello[:]); err != nil {
		return fmt.Errorf("send codec offer: %w", err)
	}
	choice, err := c.br.ReadByte()
	if err != nil {
		return fmt.Errorf("read codec choice: %w", err)
	}
	_ = c.conn.SetDeadline(time.Time{})
	switch choice {
	case binaryMagic:
		c.codec = CodecBinary
	case replyGob:
		c.codec = CodecGob
	default:
		return fmt.Errorf("server sent unknown codec choice 0x%02x", choice)
	}
	return nil
}

// Err returns the client's sticky failure: nil while the stream is
// healthy, the poisoning error once it is not (negotiation failure,
// transport death, timeout poisoning, or Close).
func (c *Client) Err() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.broken
}

// defaultDialTimeout bounds Dial's connection attempt. A raw net.Dial is
// unbounded (conndeadline); callers wanting a different bound use
// DialTimeout.
const defaultDialTimeout = 10 * time.Second

// Dial connects to a server listening at addr. The connection attempt is
// bounded by a default timeout.
func Dial(network, addr string, opts ...ClientOption) (*Client, error) {
	return DialTimeout(network, addr, defaultDialTimeout, opts...)
}

// DialTimeout is Dial with a bound on the connection attempt itself.
func DialTimeout(network, addr string, timeout time.Duration, opts ...ClientOption) (*Client, error) {
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial name server: %w", err)
	}
	c := NewClient(conn, opts...)
	if err := c.Err(); err != nil {
		// Codec negotiation failed; don't hand out a poisoned client.
		_ = c.Close()
		return nil, fmt.Errorf("dial name server: %w", err)
	}
	return c, nil
}

// send encodes pc's request while holding the write token, then releases
// the token. The flush is elided when another caller has already declared
// a write intent (wq): that caller cannot abandon the token wait in
// no-timeout mode, so its own flush is guaranteed to carry our bytes and
// a pipelined burst coalesces into one syscall. With a per-call timeout a
// queued caller may abandon the wait, so every send flushes.
//
// The write deadline is a bound, not a precise timer: a hung peer must
// fail the write within the call timeout (or clientWriteTimeout without
// one), and anywhere inside that bound is correct. So it is re-armed
// lazily at half horizon and rides across sends — a stuck write dies
// between half the bound and the full bound after it starts, and the
// hot path almost never touches the runtime timer.
//
//namingvet:allocfree
func (c *Client) send(pc *pendingCall) error {
	d := clientWriteTimeout
	if c.timeout > 0 && c.timeout < d {
		d = c.timeout
	}
	if now := time.Now(); c.wdeadline.Sub(now) < d/2 {
		c.wdeadline = now.Add(d)
		_ = c.conn.SetWriteDeadline(c.wdeadline)
	}
	var err error
	if c.codec == CodecBinary {
		// Append-encode into the token-guarded scratch: the request's
		// bytes are built and written with zero heap traffic.
		c.wbuf = appendRequest(c.wbuf[:0], &pc.req)
		err = writeFrame(c.bw, c.wbuf)
	} else {
		//namingvet:allocfree-exempt -- legacy gob codec, selectable for one release
		err = c.enc.Encode(&pc.req)
	}
	if rem := c.wq.Add(-1); err == nil && (rem == 0 || c.timeout > 0) {
		err = c.bw.Flush()
	}
	<-c.wtoken
	return err
}

// lead decodes responses while holding the read token, dispatching each
// to the call wearing its tag, until pc's completion is signalled or the
// stream dies. It leaves the signal for its caller to consume.
// With no deadline an idle read blocks until the server speaks; Close
// unblocks it by closing the conn (conndeadline's idle-loop exemption
// knows this). With a per-call timeout the leader cannot select on its
// timer while blocked in Decode, so it arms the connection's read
// deadline with its own call's expiry instead: a deadline-failed read
// poisons the client exactly as expire would have — a call timeout always
// poisons, so trading the wrecked gob stream for a dead conn loses
// nothing. Each leader re-arms on taking the token, so the deadline in
// force is always the current leader's.
//
// The decode target is a scratch field reused across iterations and
// leaders (rtoken guards it, and dispatch copies the response out before
// the next decode), so the response struct itself stays off the heap on
// every delivery.
//
//namingvet:allocfree
func (c *Client) lead(pc *pendingCall, deadline time.Time) {
	if !deadline.IsZero() {
		_ = c.conn.SetReadDeadline(deadline)
	}
	for len(pc.done) == 0 {
		if c.codec == CodecBinary {
			if err := c.readOneBinary(); err != nil {
				c.fail(recvFailure(err))
				return
			}
			continue
		}
		// Zero the scratch before reuse: gob merges into an existing value,
		// so a field the next message omits would leak the previous one.
		c.rresp = response{}
		//namingvet:allocfree-exempt -- legacy gob codec, selectable for one release
		if err := c.dec.Decode(&c.rresp); err != nil {
			c.fail(recvFailure(err))
			return
		}
		c.dispatch(&c.rresp)
	}
}

// readOneBinary reads and delivers one binary frame while holding the
// read token. A response for a live call is parsed directly into that
// call's own response struct — so the Results backing array the parse
// fills belongs to the caller outright, never aliased by the scratch
// the next frame reuses (gob got this for free by allocating fresh;
// the binary codec gets it by choosing the parse target first). Push
// frames and responses to abandoned calls parse into the token-guarded
// scratch instead.
//
//namingvet:allocfree
func (c *Client) readOneBinary() error {
	body, err := readFrame(c.br, &c.rbuf)
	if err != nil {
		return err
	}
	fr := frameReader{b: body}
	id, err := fr.uvarint()
	if err != nil {
		return err
	}
	if id != 0 {
		c.pmu.Lock()
		pc := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if pc != nil {
			if err := parseResponse(body, &pc.resp, &c.errs); err != nil {
				// pc is already out of the table, so fail cannot strand
				// it: deliver the verdict here, then kill the stream.
				pc.err = err
				pc.done <- struct{}{}
				return err
			}
			pc.done <- struct{}{}
			return nil
		}
	}
	// ID 0 (a push frame — clients never assign it) or an abandoned
	// call: parse into the scratch, both to validate the stream and, for
	// pushes, to feed the invalidation through dispatch.
	c.rresp = response{}
	if err := parseResponse(body, &c.rresp, &c.errs); err != nil {
		return err
	}
	if c.rresp.Invalidation {
		c.dispatch(&c.rresp)
	}
	return nil
}

// recvFailure classifies a dead read stream for fail: a deadline read
// poisons like a call timeout, EOF means the server went away, anything
// else is a transport fault.
//
//namingvet:allocfree-exempt -- cold: a dying stream formats its epitaph
func recvFailure(err error) error {
	var nerr net.Error
	switch {
	case errors.As(err, &nerr) && nerr.Timeout():
		return fmt.Errorf("poisoned by call timeout: %w", os.ErrDeadlineExceeded)
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("server closed: %w", err)
	default:
		return fmt.Errorf("recv response: %w", err)
	}
}

// dispatch delivers a decoded response to its pending call. Responses
// whose call has been abandoned are dropped. Push invalidation frames
// answer no call: they feed the coherent cache's purge rule directly —
// that is the whole point of subscribing — and then the optional
// notification callback, outside c.mu.
func (c *Client) dispatch(resp *response) {
	if resp.Invalidation {
		c.mu.Lock()
		c.invalidations++
		c.admitRevision(resp.Rev)
		onInval := c.onInval
		c.mu.Unlock()
		if onInval != nil {
			onInval(resp.Rev)
		}
		return
	}
	c.pmu.Lock()
	pc := c.pending[resp.ID]
	delete(c.pending, resp.ID)
	c.pmu.Unlock()
	if pc == nil {
		return
	}
	pc.resp = *resp
	pc.done <- struct{}{}
}

// fail poisons the client with err: every pending call fails now, future
// calls fail fast, and the connection is closed (unhanging any reader and
// any in-progress write). Only the first error sticks; later calls keep
// reporting it.
//
//namingvet:allocfree-exempt -- cold: poisoning gathers the stranded calls once, at death
func (c *Client) fail(err error) {
	c.pmu.Lock()
	if c.broken == nil {
		c.broken = err
	}
	err = c.broken
	stranded := make([]*pendingCall, 0, len(c.pending))
	for id, pc := range c.pending {
		delete(c.pending, id)
		stranded = append(stranded, pc)
	}
	c.pmu.Unlock()
	for _, pc := range stranded {
		pc.err = err
		pc.done <- struct{}{}
	}
	_ = c.conn.Close()
}

// reqLabel describes a request for error messages. Only failure paths pay
// for the formatting — building the label eagerly would tax every call on
// the wire's hot path.
func reqLabel(req *request) string {
	switch {
	case req.Routes:
		return "routes"
	case req.Subscribe:
		return "subscribe"
	case req.Op == OpBind:
		return fmt.Sprintf("bind %q", req.Name)
	case req.Op == OpUnbind:
		return fmt.Sprintf("unbind %q", req.Name)
	case req.Op == OpMkcontext:
		return fmt.Sprintf("mkcontext %q", req.Name)
	case req.Paths != nil:
		return fmt.Sprintf("resolve batch of %d", len(req.Paths))
	default:
		return fmt.Sprintf("resolve %q", strings.Join(req.Path, core.Separator))
	}
}

// takeCall returns a spare call state from the free list, or a new one.
func (c *Client) takeCall() *pendingCall {
	c.pmu.Lock()
	pc := c.free
	if pc != nil {
		c.free = pc.next
		pc.next = nil
	}
	c.pmu.Unlock()
	if pc == nil {
		pc = c.newCall()
	}
	return pc
}

// newCall builds a call state. Its channel and timer live as long as it.
//
//namingvet:allocfree-exempt -- amortized: one call state per concurrently outstanding call, then reused
func (c *Client) newCall() *pendingCall {
	pc := &pendingCall{done: make(chan struct{}, 1)}
	if c.timeout > 0 {
		pc.timer = time.NewTimer(c.timeout)
		pc.timer.Stop()
	}
	return pc
}

// maxPooledNames bounds the batch buffers a released call state keeps: an
// outsized batch's buffers are left to the collector rather than pinned.
const maxPooledNames = 1024

// release returns pc to the free list. The caller has consumed pc's
// completion signal, so pc is out of the pending table and nobody else
// holds it, and has copied out whatever of the response it keeps.
func (c *Client) release(pc *pendingCall) {
	pc.stopTimer()
	if r := pc.resp.Results; cap(r) > cap(pc.results) {
		pc.results = r
	}
	if cap(pc.results) > maxPooledNames {
		pc.results = nil
	}
	if cap(pc.hdrs) > maxPooledNames {
		pc.hdrs, pc.wire = nil, nil
	}
	pc.req, pc.err = request{}, nil
	pc.resp = response{Results: pc.results[:0]}
	c.pmu.Lock()
	pc.next = c.free
	c.free = pc
	c.pmu.Unlock()
}

// issue tags pc's request, registers it in the pending table and writes
// it under the write token. On nil the call is in flight and collect must
// follow; on error the call is over — its completion signal, if one was
// sent, consumed — and the caller releases pc.
func (c *Client) issue(pc *pendingCall) error {
	c.pmu.Lock()
	if c.broken != nil {
		err := c.broken
		c.pmu.Unlock()
		return c.failed(pc, err)
	}
	c.nextID++
	pc.req.ID = c.nextID
	c.pending[pc.req.ID] = pc
	c.pmu.Unlock()
	if c.timeout > 0 {
		pc.deadline = time.Now().Add(c.timeout)
	}

	c.wq.Add(1)
	select {
	case c.wtoken <- struct{}{}:
		// Uncontended fast path: the token was free.
	default:
		if c.timeout == 0 {
			// Token holders always release within the write bound, so a
			// plain send cannot hang; failure surfaces when our write runs.
			c.wtoken <- struct{}{}
			break
		}
		// Until the request is written only fail can take the call out of
		// the table, so both early exits below report an error.
		select {
		case c.wtoken <- struct{}{}:
		case <-pc.done:
			// The client failed before we could write.
			c.wq.Add(-1)
			return c.failed(pc, pc.err)
		case <-pc.arm(pc.deadline):
			pc.fired = true
			c.wq.Add(-1)
			return c.expire(pc)
		}
	}
	if err := c.send(pc); err != nil {
		//namingvet:allocfree-exempt -- cold: a failed write poisons the client
		err = fmt.Errorf("send request: %w", err)
		c.fail(err)
		// fail emptied the pending table, so pc's signal is sent or on its
		// way: consume it, or the state's next use would see it.
		<-pc.done
		if pc.err != nil {
			err = pc.err
		}
		return c.failed(pc, err)
	}
	return nil
}

// collectGraceDiv sets the least time a call gets to be read once its
// caller starts collecting it: the call timeout divided by this. A caller
// that issues several calls before collecting any (a batch fanned out
// across shards) may reach one only after its deadline passed while it
// waited on another; its answer is likely buffered by then, and the grace
// lets the read take it instead of failing a healthy replica unread.
const collectGraceDiv = 8

// collect waits for an issued call's response: it leads the read itself
// when no one else is leading, else parks until a reader delivers the
// response wearing its tag, taking over the lead if it frees up. With a
// call timeout the wait is bounded everywhere: the call's timer covers
// the waits it can select on, and the connection's read deadline covers
// the leader's blocking decode (see lead and WithTimeout).
func (c *Client) collect(pc *pendingCall) error {
	deadline := pc.deadline
	if c.timeout > 0 {
		if floor := time.Now().Add(c.timeout / collectGraceDiv); deadline.Before(floor) {
			deadline = floor
		}
	}
	// Fast path: the read token is usually free in the serial case.
	select {
	case c.rtoken <- struct{}{}:
		return c.leadFor(pc, deadline)
	default:
	}
	var timeoutC <-chan time.Time // nil, so never ready, without a call timeout
	if c.timeout > 0 {
		timeoutC = pc.arm(deadline)
	}
	select {
	case <-pc.done:
		return c.verdict(pc)
	case c.rtoken <- struct{}{}:
		return c.leadFor(pc, deadline)
	case <-timeoutC:
		pc.fired = true
		return c.expire(pc)
	}
}

// leadFor leads the read, holding the token it was handed, until pc
// completes, then consumes pc's signal: delivered by this leader, or — if
// the stream died — by whoever emptied the table.
func (c *Client) leadFor(pc *pendingCall, deadline time.Time) error {
	c.lead(pc, deadline)
	<-c.rtoken
	<-pc.done
	return c.verdict(pc)
}

// verdict reports how a completed call went.
func (c *Client) verdict(pc *pendingCall) error {
	if pc.err != nil {
		return c.failed(pc, pc.err)
	}
	return nil
}

// failed labels a call's failure with its request.
//
//namingvet:allocfree-exempt -- cold: a failed call formats its error
func (c *Client) failed(pc *pendingCall, err error) error {
	return fmt.Errorf("%s: %w", reqLabel(&pc.req), err)
}

// roundTrip issues pc's request and collects its response, then releases
// pc. The response's Results still belong to the call state, so callers
// must not read them; batches go through BatchCall.Collect, which copies
// them out before release.
func (c *Client) roundTrip(pc *pendingCall) (response, error) {
	err := c.issue(pc)
	if err == nil {
		err = c.collect(pc)
	}
	resp := pc.resp
	c.release(pc)
	if err != nil {
		return response{}, err
	}
	return resp, nil
}

// call runs one tagged round-trip for req.
func (c *Client) call(req request) (response, error) {
	pc := c.takeCall()
	pc.req = req
	return c.roundTrip(pc)
}

// expire abandons pc after its per-call timer fired. If the response beat
// the timer and is mid-delivery, the race is conceded to the reader — the
// response wins and the client stays healthy. Otherwise the call fails
// with a timeout and the client is poisoned: the wire may still owe us
// the late response, so the stream's pipeline depth is no longer known
// and the only safe sequel is a fresh connection.
//
//namingvet:allocfree-exempt -- cold: only a call that timed out gets here
func (c *Client) expire(pc *pendingCall) error {
	c.pmu.Lock()
	_, waiting := c.pending[pc.req.ID]
	if waiting {
		delete(c.pending, pc.req.ID)
		if c.broken == nil {
			c.broken = fmt.Errorf("poisoned by call timeout: %w", os.ErrDeadlineExceeded)
		}
	}
	c.pmu.Unlock()
	if !waiting {
		// The reader (or fail) already took the call out of the table and
		// owns signalling it; wait for its verdict.
		<-pc.done
		return c.verdict(pc)
	}
	return c.failed(pc, os.ErrDeadlineExceeded)
}

// admitRevision applies the coherent-cache rule to a response's revision
// and reports whether entities from that response may be cached. Callers
// hold c.mu.
//
// With responses completing out of order, "purge when the revision
// changes" alone is no longer sound: a slow pre-bump response could land
// after the purge and re-insert a stale entity. The invariant is instead
// anchored to the newest revision ever seen (c.rev): a response strictly
// ahead purges and advances, a response at c.rev may fill, and a response
// strictly behind must neither purge nor fill. Every cached entry is then
// vouched for at exactly c.rev, and staleness stays bounded by one
// round-trip — the first response resolved after a server-side bump
// carries the advanced revision and evicts everything older, while late
// pre-bump stragglers are served to their caller but never cached.
//
//namingvet:allocfree
func (c *Client) admitRevision(rev uint64) bool {
	if !c.coherent {
		return true
	}
	if rev > c.rev {
		// The exported graph changed since our entries were fetched:
		// purge before trusting anything new.
		if c.cache.Len() > 0 {
			c.cache.Clear()
			c.purges++
		}
		c.rev = rev
	}
	return rev == c.rev
}

// Resolve resolves the compound name at the server (or the cache). Names
// that are not wire-canonical fail client-side with ErrNotCanonical
// before anything crosses the wire.
//
// A hit is looked up by the key's bytes, built on the stack, and the
// name's wire form is only built — in the call state's reused buffer —
// once the resolution has to cross the wire; the key string is made only
// when a fetched entity is cached.
func (c *Client) Resolve(p core.Path) (core.Entity, error) {
	if err := CheckWirePath(p); err != nil {
		return core.Undefined, err
	}
	var buf [keyBufSize]byte
	var kb []byte
	if c.cache != nil {
		kb = p.AppendString(buf[:0])
		c.mu.Lock()
		if e, ok := lru.GetBytes(c.cache, kb); ok {
			c.hits++
			c.mu.Unlock()
			return e, nil
		}
		c.mu.Unlock()
	}
	resp, err := c.resolveWire(p)
	if err != nil {
		return core.Undefined, err
	}
	if resp.Err != "" {
		// The server did answer, so its revision counts (and may purge),
		// but a failed resolution satisfied nothing: not a miss.
		c.mu.Lock()
		c.admitRevision(resp.Rev)
		c.mu.Unlock()
		return core.Undefined, &RemoteError{Msg: resp.Err}
	}
	e := core.Entity{ID: core.EntityID(resp.Ent), Kind: core.Kind(resp.Kind)}
	c.mu.Lock()
	// Count the miss only now that the uncached resolution succeeded; a
	// transport or remote failure is not a cache miss served.
	c.misses++
	if c.admitRevision(resp.Rev) && c.cache != nil {
		c.cache.Put(string(kb), e)
	}
	c.mu.Unlock()
	return e, nil
}

// keyBufSize is the stack buffer Resolve builds a cache key in; longer
// names spill to the heap.
const keyBufSize = 128

// resolveWire runs one single-name round-trip, building the name's wire
// form in the call state's own buffer.
func (c *Client) resolveWire(p core.Path) (response, error) {
	pc := c.takeCall()
	raw, err := CanonicalWirePath(pc.wire[:0], p)
	if err != nil {
		c.release(pc)
		return response{}, err
	}
	pc.wire = raw
	pc.req = request{Path: raw}
	return c.roundTrip(pc)
}

// ResolveRev resolves p at the server, bypassing the client's own cache,
// and returns the binding revision the response carried. Cluster clients
// use it to drive a revision-tracked cache that spans many connections.
func (c *Client) ResolveRev(p core.Path) (core.Entity, uint64, error) {
	resp, err := c.resolveWire(p)
	if err != nil {
		return core.Undefined, 0, err
	}
	if resp.Err != "" {
		//namingvet:allocfree-exempt -- cold: a name that does not resolve carries its error
		return core.Undefined, resp.Rev, &RemoteError{Msg: resp.Err}
	}
	return core.Entity{ID: core.EntityID(resp.Ent), Kind: core.Kind(resp.Kind)}, resp.Rev, nil
}

// BatchCall is a batched resolution that IssueBatch has sent and Collect
// has not yet received. Issuing several before collecting any lets one
// goroutine keep a round-trip in flight on each of several connections.
type BatchCall struct {
	c  *Client
	pc *pendingCall
}

// IssueBatch sends every path as one wire batch and returns without
// waiting for the answer. The names' wire form is built in a reused call
// state. On success the batch is in flight and Collect must follow
// exactly once; on error nothing is in flight.
func (c *Client) IssueBatch(paths []core.Path) (BatchCall, error) {
	pc := c.takeCall()
	hdrs, flat, err := canonicalWirePaths(pc.hdrs[:0], pc.wire[:0], paths)
	if err != nil {
		c.release(pc)
		return BatchCall{}, err
	}
	pc.hdrs, pc.wire = hdrs, flat
	pc.req = request{Paths: hdrs}
	if err := c.issue(pc); err != nil {
		c.release(pc)
		return BatchCall{}, err
	}
	return BatchCall{c: c, pc: pc}, nil
}

// Collect waits for the batch's answer, appends one result per path to
// dst in argument order, and returns the batch's binding revision;
// per-name failures are in the results. On error dst comes back as
// passed. Collect releases the call: b must not be used again.
func (b BatchCall) Collect(dst []BatchResult) ([]BatchResult, uint64, error) {
	c, pc := b.c, b.pc
	defer c.release(pc)
	if err := c.collect(pc); err != nil {
		return dst, 0, err
	}
	if got, want := len(pc.resp.Results), len(pc.req.Paths); got != want {
		//namingvet:allocfree-exempt -- cold: a malformed response formats its error
		return dst, 0, fmt.Errorf("resolve batch: got %d results for %d paths", got, want)
	}
	// The results are copied out here, before release: only this path may
	// leave the backing array with the call state for its next use.
	for _, res := range pc.resp.Results {
		if res.Err != "" {
			dst = append(dst, BatchResult{Entity: core.Undefined, Err: &RemoteError{Msg: res.Err}})
			continue
		}
		dst = append(dst, BatchResult{Entity: core.Entity{ID: core.EntityID(res.ID), Kind: core.Kind(res.Kind)}})
	}
	return dst, pc.resp.Rev, nil
}

// ResolveBatchRev resolves every path in one round-trip, bypassing the
// client's own cache, and returns the batch's binding revision. Results
// are in argument order; per-name failures are in the results.
//
//namingvet:allocfree
func (c *Client) ResolveBatchRev(paths []core.Path) ([]BatchResult, uint64, error) {
	call, err := c.IssueBatch(paths)
	if err != nil {
		return nil, 0, err
	}
	//namingvet:allocfree-exempt -- the result slice is handed to the caller
	out := make([]BatchResult, 0, len(paths))
	out, rev, err := call.Collect(out)
	if err != nil {
		return nil, 0, err
	}
	return out, rev, nil
}

// BatchResult is one outcome of a batched resolution.
type BatchResult struct {
	// Entity is the resolved entity (Undefined on failure).
	Entity core.Entity
	// Err is the per-name failure (*RemoteError), nil on success.
	Err error
}

// ResolveBatch resolves every path in one round-trip (cache hits are
// answered locally; duplicates cross the wire once). Results are in
// argument order. The returned error reports a transport failure; per-name
// resolution failures are in the results.
func (c *Client) ResolveBatch(paths []core.Path) ([]BatchResult, error) {
	out := make([]BatchResult, len(paths))
	if len(paths) == 0 {
		return out, nil
	}

	// Answer what we can from the cache; collect the rest, deduplicated.
	// Non-canonical names fail in their result slot before touching the
	// cache or the wire — a bad name must not become a cache key.
	need := make(map[string][]int)
	var order []string
	var uniq []core.Path
	c.mu.Lock()
	for i, p := range paths {
		if err := CheckWirePath(p); err != nil {
			out[i] = BatchResult{Entity: core.Undefined, Err: err}
			continue
		}
		key := p.String()
		if c.cache != nil {
			if e, ok := c.cache.Get(key); ok {
				c.hits++
				out[i] = BatchResult{Entity: e}
				continue
			}
		}
		if _, seen := need[key]; !seen {
			order = append(order, key)
			uniq = append(uniq, p)
		}
		need[key] = append(need[key], i)
	}
	c.mu.Unlock()
	if len(order) == 0 {
		return out, nil
	}

	results, rev, err := c.ResolveBatchRev(uniq)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	fresh := c.admitRevision(rev)
	for k, br := range results {
		if br.Err == nil && fresh && c.cache != nil {
			c.cache.Put(order[k], br.Entity)
		}
		for _, i := range need[order[k]] {
			out[i] = br
			if br.Err == nil {
				// Misses count per slot (duplicates included) and only for
				// slots an uncached resolution actually satisfied.
				c.misses++
			}
		}
	}
	c.mu.Unlock()
	return out, nil
}

// Routes fetches the routing table of a sharded deployment from the
// server. Servers outside a cluster answer with a RemoteError.
func (c *Client) Routes() (*RouteInfo, error) {
	resp, err := c.call(request{Routes: true})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, &RemoteError{Msg: resp.Err}
	}
	if resp.Routes == nil {
		return nil, &RemoteError{Msg: "empty routing table"}
	}
	return resp.Routes, nil
}

// Stats returns cache hits and misses so far.
func (c *Client) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Purges returns how many times the coherent cache has been invalidated.
func (c *Client) Purges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.purges
}

// Invalidations returns how many push invalidation frames this client has
// consumed (always 0 without Subscribe).
func (c *Client) Invalidations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.invalidations
}

// Close fails every in-flight and future call with ErrClientClosed and
// closes the connection, which also unblocks any caller leading a read —
// including the standing reader a subscription starts, which is then
// joined so no goroutine outlives the client.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		c.fail(ErrClientClosed)
	})
	c.readerWG.Wait()
	return nil
}
