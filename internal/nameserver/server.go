package nameserver

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"namecoherence/internal/core"
)

// Clone returns an independent copy.
func (r *RouteInfo) Clone() *RouteInfo {
	c := &RouteInfo{
		Prefixes: make(map[string]int, len(r.Prefixes)),
		Default:  r.Default,
		Addrs:    append([]string(nil), r.Addrs...),
	}
	for p, s := range r.Prefixes {
		c.Prefixes[p] = s
	}
	if r.Replicas != nil {
		c.Replicas = make([][]string, len(r.Replicas))
		for i, addrs := range r.Replicas {
			c.Replicas[i] = append([]string(nil), addrs...)
		}
	}
	return c
}

// ReplicaAddrs returns every address serving the given shard: the replica
// list when the deployment is replicated, else just the primary address.
func (r *RouteInfo) ReplicaAddrs(shard int) []string {
	if shard < len(r.Replicas) && len(r.Replicas[shard]) > 0 {
		return append([]string(nil), r.Replicas[shard]...)
	}
	return []string{r.Addrs[shard]}
}

// ShardFor returns the shard index serving the given path.
func (r *RouteInfo) ShardFor(p core.Path) int {
	if len(p) > 0 {
		if s, ok := r.Prefixes[string(p[0])]; ok {
			return s
		}
	}
	return r.Default
}

// serveWriteTimeout bounds each response write so a stalled peer cannot
// pin a server goroutine forever.
const serveWriteTimeout = time.Minute

// Server resolves names in an exported context on behalf of remote
// clients. Each connection is served by a leader/followers pool of
// resolver goroutines — whoever holds the decode token reads the next
// request, hands the token on, and resolves what it read — so one
// connection can carry many requests in flight; responses are written as
// resolutions complete, each tagged with the ID of the request it
// answers.
type Server struct {
	world    *core.World
	export   core.Context
	workers  int  // per-connection resolver pool size; immutable after NewServer
	readonly bool // immutable after NewServer; mutations are refused

	// wmu serializes every binding mutation applied through this server
	// (the wire write path and Stable). It is never held across wire I/O;
	// replies are written after it is released. The snapshot keeper runs
	// its snap closure under the same lock (via Stable), so a snapshot can
	// never observe a half-applied mutation — the rev/snap pair it commits
	// is torn-proof by construction.
	wmu sync.Mutex

	// rev is the binding revision. It is read without a lock but stored
	// only under mu, beside the subscriber notify, so the revision stays
	// monotonic and pushes leave in revision order.
	rev      atomic.Uint64
	served   atomic.Int64
	resolved atomic.Int64

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	subs     map[*connState]struct{} // connections subscribed for push invalidation
	closed   bool
	routes   *RouteInfo
	// onMutation, when set, is called under wmu after each locally
	// originated mutation commits — in commit order, which is what a
	// primary-per-shard replicator needs to keep backups convergent.
	onMutation func(AppliedMutation)
	// exportRoot is the watched export root (set by WatchExport); watching
	// reports whether the export is under revision watch at all.
	exportRoot core.Entity
	watching   bool
	wg         sync.WaitGroup
}

// ServerOption configures a Server.
type ServerOption interface {
	apply(*Server)
}

type workersOption int

func (o workersOption) apply(s *Server) {
	if int(o) > 0 {
		s.workers = int(o)
	}
}

// WithWorkers bounds how many requests one connection resolves
// concurrently (default: GOMAXPROCS). Decoding stalls once every worker
// is mid-resolution, so a single connection cannot occupy more than n
// resolver goroutines no matter how deep the client pipelines.
func WithWorkers(n int) ServerOption {
	return workersOption(n)
}

type readonlyOption struct{}

func (readonlyOption) apply(s *Server) { s.readonly = true }

// WithReadOnly refuses every wire mutation with a clean error while
// leaving resolution untouched. Useful for serving a frozen snapshot or
// fencing a shard during maintenance.
func WithReadOnly() ServerOption {
	return readonlyOption{}
}

// NewServer returns a server exporting the given context of world.
func NewServer(w *core.World, export core.Context, opts ...ServerOption) *Server {
	s := &Server{
		world:   w,
		export:  export,
		workers: runtime.GOMAXPROCS(0),
		conns:   make(map[net.Conn]struct{}),
		subs:    make(map[*connState]struct{}),
	}
	for _, o := range opts {
		o.apply(s)
	}
	return s
}

// Serve accepts connections on ln until Close is called, serving each
// connection on its own goroutine. It returns after the listener fails
// (normally: because Close closed it).
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.listener = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// connState bundles the wire state one connection's worker pool shares.
// The reader is guarded by dtoken and the writer by wtoken — capacity-1
// token channels rather than mutexes, because writing to the peer is
// wire I/O and no sync.Mutex may be held across wire I/O (lockheld).
type connState struct {
	conn      net.Conn
	br        *bufio.Reader // guarded by dtoken
	bw        *bufio.Writer // guarded by wtoken
	dtoken    chan struct{} // capacity 1; held by the worker currently decoding
	wtoken    chan struct{} // capacity 1; held while encoding and flushing
	wq        atomic.Int32  // declared write intents; >0 after our encode elides our flush
	wdeadline time.Time     // armed write deadline; guarded by wtoken
	wbuf      []byte        // encode scratch; guarded by wtoken
	deadOnce  sync.Once
	// invalC carries revisions to this connection's pusher goroutine.
	// Capacity 1 with drop-and-replace offers: consecutive bumps coalesce
	// into one frame carrying the newest revision, so a write burst costs a
	// slow subscriber at most one queued frame (the cache purge rule only
	// cares about the latest revision anyway). Closed by ServeConn after
	// the connection leaves the subscriber set.
	invalC chan uint64
}

// offer queues rev for push without ever blocking: if a frame is already
// queued it is superseded — the newer revision strictly dominates it.
// Called with Server.mu held (channel ops are not wire I/O).
func (st *connState) offer(rev uint64) {
	for {
		select {
		case st.invalC <- rev:
			return
		default:
		}
		select {
		case <-st.invalC: // drop the superseded frame
		default:
		}
	}
}

// die marks the stream unusable: the conn closes, failing any in-progress
// read or write, and each worker's next decode errors out — the decode
// token keeps circulating through the failing decodes, so the whole pool
// drains.
func (st *connState) die() {
	st.deadOnce.Do(func() {
		_ = st.conn.Close()
	})
}

// ServeConn serves one connection until EOF or error, then closes it. It
// may be called directly (e.g. with one end of a net.Pipe).
//
// Requests are decoded in arrival order but resolved concurrently by up
// to s.workers goroutines, so responses can be written out of request
// order; each echoes its request's ID so the client can pair them up.
func (s *Server) ServeConn(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	if !helloServer(conn, br) {
		// The peer vanished before its first byte, died mid-hello, or does
		// not speak this protocol: it gets no workers and no pusher.
		return
	}
	st := &connState{
		conn:   conn,
		br:     br,
		bw:     bufio.NewWriter(conn),
		dtoken: make(chan struct{}, 1),
		wtoken: make(chan struct{}, 1),
	}
	st.invalC = make(chan uint64, 1)
	var pushWG sync.WaitGroup
	pushWG.Add(1)
	go func() {
		defer pushWG.Done()
		s.pushInvalidations(st)
	}()
	var wg sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveRequests(st)
		}()
	}
	wg.Wait()
	// The workers have drained: the conn is dead. Leave the subscriber set
	// first (under mu, so no Bump can offer concurrently), then close the
	// channel to stop the pusher, then join it.
	s.mu.Lock()
	delete(s.subs, st)
	s.mu.Unlock()
	close(st.invalC)
	pushWG.Wait()
}

// helloServer reports whether a fresh connection opens with the protocol
// magic, echoing it if so. Anything else is a peer that does not speak
// this protocol, refused before a single frame is parsed. The wait for
// the first byte is the connection's ordinary idle state — Close
// unblocks it by closing the conn, exactly as it unblocks a worker's
// idle read.
func helloServer(conn net.Conn, br *bufio.Reader) bool {
	first, err := br.ReadByte()
	if err != nil || first != protocolMagic {
		return false
	}
	_ = conn.SetWriteDeadline(time.Now().Add(serveWriteTimeout))
	magic := [1]byte{protocolMagic}
	_, err = conn.Write(magic[:])
	return err == nil
}

// pushInvalidations is a connection's push goroutine: it forwards every
// revision offered on invalC to the peer as an unsolicited Invalidation
// frame. Frames share the connection's write token with ordinary
// responses, so a push can never tear a response mid-message. The
// goroutine runs for every connection but stays parked until the peer
// subscribes (only subscribers receive offers); it exits when ServeConn
// closes invalC — or early, if the peer dies mid-push.
func (s *Server) pushInvalidations(st *connState) {
	for rev := range st.invalC {
		resp := response{Rev: rev, Invalidation: true}
		s.respond(st, &resp)
	}
}

// workerScratch is one resolver goroutine's reusable state: the frame
// and decode buffers a request is parsed into, and the path/results
// buffers resolution fills. Workers never share a scratch, so
// steady-state serving touches the allocator not at all —
// every buffer reaches its high-water mark and is reused, and the
// intern table absorbs the connection's recurring names.
type workerScratch struct {
	req     request
	path    core.Path
	results []result
	// Decode state: the raw frame (filled under dtoken,
	// parsed after release, so workers parse in parallel), the backing
	// arrays for the decoded request's Path/Paths, and the intern table
	// for its strings.
	frame    []byte
	reqPath  []string
	reqPaths [][]string
	names    strIntern
}

// serveRequests is one worker in a connection's leader/followers pool:
// whoever holds the decode token reads the next request, releases the
// token so another worker can read the one after, then resolves and
// writes the response itself. Decoding and encoding each stay
// single-streamed while up to s.workers resolutions run concurrently —
// and a serial client's request runs decode→resolve→encode on one
// goroutine with no handoffs at all.
//
//namingvet:allocfree
func (s *Server) serveRequests(st *connState) {
	var sc workerScratch
	// Declared outside the loop: resp's address reaches respond, so an
	// in-loop declaration heap-allocates every request. Every iteration
	// overwrites it wholesale before use.
	var resp response
	for {
		// Read the raw frame under the token, parse it after release: the
		// stream stays single-streamed while workers parse (and resolve)
		// in parallel. An idle read blocks until the peer speaks; Close
		// unblocks it by closing the conn (conndeadline's idle-loop
		// exemption knows this).
		st.dtoken <- struct{}{}
		body, err := readFrame(st.br, &sc.frame)
		<-st.dtoken
		if err == nil {
			err = parseRequest(body, &sc.req, &sc)
		}
		if err != nil {
			st.die() // EOF, broken peer, or torn frame; drain the rest of the pool
			return
		}
		if sc.req.Subscribe {
			// Subscription needs the connection identity, so it is handled
			// here rather than in handle. From the moment the connection
			// joins the set, every bump is offered to it; the ack carries
			// the current revision so the client starts from a known point.
			s.mu.Lock()
			s.subs[st] = struct{}{}
			resp = response{Rev: s.rev.Load()}
			s.mu.Unlock()
		} else {
			resp = s.handle(&sc)
		}
		resp.ID = sc.req.ID
		names := len(sc.req.Paths)
		if sc.req.Paths == nil && !sc.req.Routes {
			names = 1
		}
		s.served.Add(1)
		s.resolved.Add(int64(names))
		s.respond(st, &resp)
	}
}

// respond writes one response under the connection's write token. The
// flush is elided when another worker has already declared a write
// intent — workers never abandon a declared intent, so that worker's own
// flush is guaranteed to carry our bytes and a burst of pipelined
// responses rides one syscall.
func (s *Server) respond(st *connState, resp *response) {
	st.wq.Add(1)
	st.wtoken <- struct{}{}
	now := time.Now()
	if st.wdeadline.Sub(now) < serveWriteTimeout/2 {
		// The write bound is a liveness backstop, not a precise timer, so
		// re-arm it lazily at half horizon and let it ride across writes.
		st.wdeadline = now.Add(serveWriteTimeout)
		_ = st.conn.SetWriteDeadline(st.wdeadline)
	}
	// Append-encode into the token-guarded scratch: the response's bytes
	// are built and written with zero heap traffic.
	st.wbuf = appendResponse(st.wbuf[:0], resp)
	err := writeFrame(st.bw, st.wbuf)
	if rem := st.wq.Add(-1); err == nil && rem == 0 {
		err = st.bw.Flush()
	}
	<-st.wtoken
	if err != nil {
		// The stream died mid-message; kill the conn so the decoders stop
		// instead of queueing answers nobody will read.
		st.die()
	}
}

// handle serves one wire request from sc.req, resolving into the worker's
// scratch buffers.
//
// The resolve cases return a revision consistent with the bindings they
// read, re-resolving until the revision settles. The revision is sampled
// after resolution — sampling before would let a concurrent Bump pair a
// fresh binding with a stale revision, deferring the coherent-cache purge
// by one round-trip and breaking WithCoherentCache's staleness bound. If
// the revision moved while resolving, the resolution raced a binding
// change and is retried against the newer revision; if it never settles,
// the pre-resolution revision is returned, which at worst forces the
// client to purge again next trip (conservative, never stale). The retry
// loop is written out in both cases rather than lifted into a helper
// taking a resolve closure: handle is on serveRequests' allocfree path,
// and the loop is the price of keeping it closure-free.
func (s *Server) handle(sc *workerScratch) response {
	req := &sc.req
	switch {
	case req.Op != opNone:
		return s.handleMutation(req)
	case req.Routes:
		s.mu.Lock()
		routes := s.routes
		s.mu.Unlock()
		if routes == nil {
			return response{Err: "no routing table: server is not a cluster member"}
		}
		//namingvet:allocfree-exempt -- cold: routing bootstrap copies the table
		return response{Routes: routes.Clone()}
	case req.Paths != nil:
		results := sc.results[:0]
		rev := s.Revision()
		for attempt := 0; ; attempt++ {
			results = results[:0]
			for _, raw := range req.Paths {
				results = append(results, s.resolveOne(&sc.path, raw))
			}
			after := s.Revision()
			if after == rev || attempt == 3 {
				break
			}
			rev = after
		}
		sc.results = results
		return response{Rev: rev, Results: results}
	default:
		var res result
		rev := s.Revision()
		for attempt := 0; ; attempt++ {
			res = s.resolveOne(&sc.path, req.Path)
			after := s.Revision()
			if after == rev || attempt == 3 {
				break
			}
			rev = after
		}
		return response{Ent: res.ID, Kind: res.Kind, Rev: rev, Err: res.Err}
	}
}

// resolveOne resolves one wire path in the exported context, rebuilding it
// into the caller's scratch path (amortized: the backing array is reused
// across requests). The path is re-validated here even though well-behaved
// clients canonicalize before sending: the wire trusts no peer's parser
// (§6 — coherence is checked where the name is used, not only where it was
// made).
func (s *Server) resolveOne(scratch *core.Path, raw []string) result {
	p := (*scratch)[:0]
	for _, c := range raw {
		p = append(p, core.Name(c))
	}
	*scratch = p
	if err := CheckWirePath(p); err != nil {
		return result{Err: err.Error()}
	}
	e, err := s.world.Resolve(s.export, p)
	if err != nil {
		return result{Err: err.Error()}
	}
	return result{ID: uint64(e.ID), Kind: uint8(e.Kind)}
}

// Bump advances the server's binding revision and fans the new revision
// out to subscribed connections. Coherent client caches purge their
// entries at the next round-trip after a bump — or on the pushed frame
// itself when subscribed — bounding cache staleness to one request. Call
// it whenever the exported naming graph changes, or let WatchExport do so
// automatically.
//
//namingvet:revbump
func (s *Server) Bump() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.notifyLocked(s.rev.Add(1))
}

// notifyLocked offers rev to every subscribed connection's pusher.
// Callers hold s.mu; offers never block (see connState.offer).
func (s *Server) notifyLocked(rev uint64) {
	for st := range s.subs {
		st.offer(rev)
	}
}

// Revision returns the current binding revision.
func (s *Server) Revision() uint64 {
	return s.rev.Load()
}

// SetRevision advances the binding revision to at least rev. Recovery
// uses it to resume a restored shard at the revision its snapshot was
// committed under, and replicated applies use it to adopt the primary's
// revision tag. It never moves the revision backwards: a client that
// already observed a higher revision must not see this server "rewind"
// past it, or the coherent-cache purge rule would admit stale entries as
// current. An advance notifies subscribers exactly like Bump.
//
//namingvet:revbump
func (s *Server) SetRevision(rev uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rev > s.rev.Load() {
		s.rev.Store(rev)
		s.notifyLocked(rev)
	}
}

// Stable runs fn under the lock that serializes binding mutations: no
// wire write can commit while fn runs. The snapshot keeper routes its
// rev-probe/snapshot pair through Stable so the pair is consistent — a
// snapshot can never capture a mutation the probed revision predates.
// fn must not call back into the server's mutation path.
func (s *Server) Stable(fn func()) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	fn()
}

// SetRoutes installs the routing table this server hands to clients that
// ask (cluster members all carry the same table, so any member can
// bootstrap a cluster client).
func (s *Server) SetRoutes(routes *RouteInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.routes = routes.Clone()
}

// WatchExport wraps every directory reachable from root so that any
// binding change bumps the server revision, and returns how many
// directories are now watched. The watch is self-extending: when a
// binding introduces an entity, every directory reachable through it is
// watched too, so directories created (or attached) after watch time
// cannot mutate silently — the hole that once let a bind in a freshly
// made context leave client caches stale.
func (s *Server) WatchExport(root core.Entity) int {
	s.mu.Lock()
	s.exportRoot = root
	s.watching = true
	s.mu.Unlock()
	return s.world.WatchReachable(root, s.exportWatch)
}

// exportWatch is the watch callback installed on every exported
// directory: bump the revision, then extend the watch over whatever the
// change made reachable. The recursion terminates because WatchReachable
// skips already-watched directories.
func (s *Server) exportWatch(_ core.Name, e core.Entity) {
	s.Bump()
	if !e.IsUndefined() {
		s.world.WatchReachable(e, s.exportWatch)
	}
}

// Served returns the number of wire requests handled so far (a batch
// counts once — that is the point of batching).
func (s *Server) Served() int {
	return int(s.served.Load())
}

// Resolved returns the number of names resolved so far (every element of a
// batch counts).
func (s *Server) Resolved() int {
	return int(s.resolved.Load())
}

// Close stops the listener, closes active connections, and waits for
// connection handlers started by Serve to finish.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.listener
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	s.wg.Wait()
}
