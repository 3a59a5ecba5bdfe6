package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"namecoherence/internal/core"
	"namecoherence/internal/lru"
	"namecoherence/internal/nameserver"
)

// Client fronts a sharded cluster: it routes every name to the shard
// serving its prefix, shares one multiplexed connection per replica (the
// wire client pipelines concurrent requests, so shard lookups overlap on
// a single conn), answers repeats from a revision-tracked LRU cache,
// coalesces concurrent identical lookups, and resolves batches with one
// round-trip per shard. Every round-trip runs under a deadline; transport
// failures retire the poisoned connection and are retried with
// exponential backoff across the shard's replicas, and replicas that keep
// failing are circuit-broken so they stop absorbing dials.
type Client struct {
	network string
	routes  *nameserver.RouteInfo
	shards  []*replicaSet
	retries int
	backoff time.Duration

	// scratch pools ResolveBatch's working sets (*batchScratch).
	scratch sync.Pool

	mu        sync.Mutex
	closed    bool
	cache     *lru.Cache[string, cacheEntry]
	revs      []uint64 // per-shard binding revision last seen
	flights   map[string]*flight
	hits      int
	misses    int
	coalesced int
	purges    int
	failovers int
	// push invalidation (see WithPushInvalidation): every shared
	// connection subscribes on dial, and pushed revisions feed the
	// per-shard purge rule without waiting for the next miss.
	push          bool
	invalidations int
}

// cacheEntry tags each cached binding with its shard, so a revision
// advance purges exactly the entries that shard vouched for.
type cacheEntry struct {
	entity core.Entity
	shard  int
}

// flight is one in-progress resolution that concurrent identical lookups
// wait on instead of issuing their own round-trips. done is released once,
// after e and err are set.
type flight struct {
	done sync.WaitGroup
	e    core.Entity
	err  error
}

// ErrClientClosed is returned by requests that race or follow Close.
var ErrClientClosed = errors.New("cluster: client closed")

// Failure-model defaults. A request makes 1+defaultRetries attempts, each
// bounded by defaultTimeout (dial and round-trip alike); attempts after
// the first wait defaultBackoffBase·2^(n-1) plus equal jitter. A replica
// with defaultBreakerThreshold consecutive failures is skipped for
// defaultBreakerCooldown.
const (
	defaultTimeout          = 5 * time.Second
	defaultRetries          = 2
	defaultBackoffBase      = 2 * time.Millisecond
	maxBackoff              = 100 * time.Millisecond
	defaultBreakerThreshold = 3
	defaultBreakerCooldown  = 250 * time.Millisecond
)

// ClientOption configures a Client.
type ClientOption interface {
	apply(*Client)
}

type lruOption int

func (o lruOption) apply(c *Client) {
	c.cache = lru.New[string, cacheEntry](int(o))
}

// WithLRU enables a revision-tracked LRU cache of at most n entries.
// Every response carries its shard's binding revision; when a shard's
// revision advances, that shard's entries are purged before anything new
// is trusted — the coherent-cache staleness bound, per shard.
func WithLRU(n int) ClientOption {
	return lruOption(n)
}

type timeoutOption time.Duration

func (o timeoutOption) apply(c *Client) {
	for _, p := range c.shards {
		p.timeout = time.Duration(o)
	}
}

// WithTimeout bounds every dial and round-trip (default 5s; 0 disables).
// A hung replica then costs one timeout, not a wedged client: the
// per-call timer fails only the waiting call, and the poisoned connection
// is retired on the way out.
func WithTimeout(d time.Duration) ClientOption {
	return timeoutOption(d)
}

type retriesOption int

func (o retriesOption) apply(c *Client) { c.retries = int(o) }

// WithRetries sets how many extra attempts follow a transport failure
// (default 2). Retries prefer a different replica of the shard, so with
// replication a single dead replica is survived within one request.
func WithRetries(n int) ClientOption {
	return retriesOption(n)
}

type backoffOption time.Duration

func (o backoffOption) apply(c *Client) { c.backoff = time.Duration(o) }

// WithBackoff sets the base delay before retry n to base·2^(n-1) plus
// equal jitter, capped at 100ms (default base 2ms; 0 disables waiting).
func WithBackoff(base time.Duration) ClientOption {
	return backoffOption(base)
}

type breakerOption struct {
	threshold int
	cooldown  time.Duration
}

func (o breakerOption) apply(c *Client) {
	for _, p := range c.shards {
		p.breakerThreshold = o.threshold
		p.breakerCooldown = o.cooldown
	}
}

// WithBreaker configures the per-replica circuit breaker: after threshold
// consecutive failures a replica is skipped for cooldown, then probed
// again (default 3 failures, 250ms; threshold 0 disables breaking).
func WithBreaker(threshold int, cooldown time.Duration) ClientOption {
	return breakerOption{threshold: threshold, cooldown: cooldown}
}

// NewClient returns a client over an already-known routing table.
func NewClient(network string, routes *nameserver.RouteInfo, opts ...ClientOption) *Client {
	c := &Client{
		network: network,
		routes:  routes.Clone(),
		shards:  make([]*replicaSet, len(routes.Addrs)),
		revs:    make([]uint64, len(routes.Addrs)),
		flights: make(map[string]*flight),
		retries: defaultRetries,
		backoff: defaultBackoffBase,
	}
	for i := range routes.Addrs {
		c.shards[i] = &replicaSet{
			network:          network,
			addrs:            c.routes.ReplicaAddrs(i),
			timeout:          defaultTimeout,
			breakerThreshold: defaultBreakerThreshold,
			breakerCooldown:  defaultBreakerCooldown,
		}
		c.shards[i].conns = make([]*sharedConn, len(c.shards[i].addrs))
		c.shards[i].breakers = make([]breaker, len(c.shards[i].addrs))
		shard := i
		c.shards[i].onDial = func(conn *sharedConn) { c.maybeSubscribe(shard, conn) }
	}
	for _, o := range opts {
		o.apply(c)
	}
	return c
}

// Dial bootstraps a cluster client from any one member: it fetches the
// routing table from the seed server and connects per shard on demand.
// The bootstrap round-trip is bounded by the default timeout. A close
// error on the one-shot seed connection is ignored once the routing table
// is in hand — the routes are valid regardless.
func Dial(network, seedAddr string, opts ...ClientOption) (*Client, error) {
	seed, err := nameserver.DialTimeout(network, seedAddr, defaultTimeout,
		nameserver.WithTimeout(defaultTimeout))
	if err != nil {
		return nil, fmt.Errorf("dial cluster seed: %w", err)
	}
	routes, err := seed.Routes()
	_ = seed.Close()
	if err != nil {
		return nil, fmt.Errorf("bootstrap routes from %s: %w", seedAddr, err)
	}
	return NewClient(network, routes, opts...), nil
}

// Routes returns the routing table the client operates with.
func (c *Client) Routes() *nameserver.RouteInfo { return c.routes.Clone() }

// Resolve resolves one compound name: from the cache if possible, else by
// one round-trip to the shard serving the name's prefix, failing over
// across the shard's replicas on transport errors. Concurrent resolutions
// of the same name share one round-trip (and its outcome, including a
// failure — but a failed flight is never reused by later calls).
//
// The cache key is built into stack bytes, and a hit or a coalesced
// lookup is answered from them; only a miss materializes the key.
//
//namingvet:allocfree
func (c *Client) Resolve(p core.Path) (core.Entity, error) {
	// A non-canonical name fails here, not after three replica retries:
	// the server would reject it as firmly as the first replica did.
	if err := nameserver.CheckWirePath(p); err != nil {
		return core.Undefined, err
	}
	var buf [keyBufSize]byte
	kb := p.AppendString(buf[:0])
	c.mu.Lock()
	if c.cache != nil {
		if entry, ok := lru.GetBytes(c.cache, kb); ok {
			c.hits++
			c.mu.Unlock()
			return entry.entity, nil
		}
	}
	if f, ok := c.flights[string(kb)]; ok {
		// Someone is already fetching this name: share their answer.
		c.coalesced++
		c.mu.Unlock()
		f.done.Wait()
		return f.e, f.err
	}
	//namingvet:allocfree-exempt -- the miss key: the flight table, then the cache, retains it
	key := string(kb)
	//namingvet:allocfree-exempt -- the miss's flight: concurrent lookups of the name wait on it
	f := &flight{}
	f.done.Add(1)
	c.flights[key] = f
	c.misses++
	c.mu.Unlock()

	shard := c.routes.ShardFor(p)
	e, rev, err := c.resolveAtShard(shard, p)

	c.mu.Lock()
	c.noteRevision(shard, rev, err)
	if err == nil && c.cache != nil {
		c.cache.Put(key, cacheEntry{entity: e, shard: shard})
	}
	delete(c.flights, key)
	c.mu.Unlock()
	f.e, f.err = e, err
	f.done.Done()
	return e, err
}

// keyBufSize is the stack buffer Resolve builds a cache key in; longer
// names spill to the heap.
const keyBufSize = 128

// resolveAtShard runs one single-name round-trip against the shard, with
// bounded retry: each transport failure retires the poisoned shared
// connection, records it against the replica's breaker, backs off, and
// prefers a different replica on the next attempt.
func (c *Client) resolveAtShard(shard int, p core.Path) (core.Entity, uint64, error) {
	set := c.shards[shard]
	var lastErr error
	avoid := -1
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.backoffDelay(attempt))
		}
		conn, err := set.get(avoid)
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return core.Undefined, 0, err
			}
			//namingvet:allocfree-exempt -- cold: a failed attempt formats its error
			lastErr = fmt.Errorf("shard %d: %w", shard, err)
			continue
		}
		e, rev, err := conn.ResolveRev(p)
		if err == nil || isRemote(err) {
			set.ok(conn.replica)
			return e, rev, err
		}
		// Transport failure: the shared connection is poisoned, retire it
		// and charge the replica's breaker.
		set.retire(conn)
		c.noteFailover(attempt)
		avoid = conn.replica
		//namingvet:allocfree-exempt -- cold: a failed attempt formats its error
		lastErr = fmt.Errorf("shard %d replica %d: %w", shard, conn.replica, err)
	}
	return core.Undefined, 0, lastErr
}

// issueShard sends one attempt at a shard's wire batch, on a replica
// other than avoid if it can (-1 for none), without waiting for the
// answer; collectShard collects it. A failed issue is recorded in sb for
// collectShard to charge and retry like any failed attempt.
func (c *Client) issueShard(shard int, sb *shardBatch, avoid int) {
	sb.conn, sb.err = c.shards[shard].get(avoid)
	if sb.err == nil {
		sb.call, sb.err = sb.conn.IssueBatch(sb.paths)
	}
}

// collectShard completes a shard's wire batch under resolveAtShard's
// retry policy. Attempt 0 is the round-trip issueShard started; each
// further attempt backs off, prefers another replica, and runs its
// round-trip to completion before the next.
func (c *Client) collectShard(shard int, sb *shardBatch) {
	set := c.shards[shard]
	avoid := -1
	for attempt := 0; ; attempt++ {
		if sb.err == nil {
			sb.results, sb.rev, sb.err = sb.call.Collect(sb.results[:0])
			if sb.err == nil {
				set.ok(sb.conn.replica)
				return
			}
		}
		switch {
		case errors.Is(sb.err, ErrClientClosed):
			return
		case sb.conn == nil:
			//namingvet:allocfree-exempt -- cold: a failed attempt formats its error
			sb.err = fmt.Errorf("shard %d: %w", shard, sb.err)
		default:
			// Transport failure: the shared connection is poisoned, retire
			// it and charge the replica's breaker.
			set.retire(sb.conn)
			c.noteFailover(attempt)
			avoid = sb.conn.replica
			//namingvet:allocfree-exempt -- cold: a failed attempt formats its error
			sb.err = fmt.Errorf("shard %d replica %d: %w", shard, sb.conn.replica, sb.err)
		}
		if attempt == c.retries {
			return
		}
		time.Sleep(c.backoffDelay(attempt + 1))
		c.issueShard(shard, sb, avoid)
	}
}

// backoffDelay returns the wait before retry attempt (1-based): the base
// doubled per retry, capped, plus uniform jitter of the same magnitude so
// concurrent retries spread out.
func (c *Client) backoffDelay(attempt int) time.Duration {
	if c.backoff <= 0 {
		return 0
	}
	d := c.backoff << (attempt - 1)
	if d > maxBackoff {
		d = maxBackoff
	}
	return d + rand.N(d)
}

// noteFailover counts retried transport failures (attempt 0 counts too:
// it is the failure that triggers failing over).
func (c *Client) noteFailover(int) {
	c.mu.Lock()
	c.failovers++
	c.mu.Unlock()
}

// noteRevision applies the per-shard purge rule. Callers hold c.mu. The
// revision is trusted only from successful or remote-failed responses
// (rev 0 from a transport error must not purge anything).
func (c *Client) noteRevision(shard int, rev uint64, err error) {
	if err != nil && !isRemote(err) {
		return
	}
	if c.cache == nil || rev == c.revs[shard] {
		return
	}
	// The shard's subtree changed since its entries were fetched: purge
	// everything that shard vouched for before trusting anything new.
	if removed := c.cache.DeleteFunc(func(_ string, e cacheEntry) bool {
		return e.shard != shard
	}); removed > 0 {
		c.purges++
	}
	c.revs[shard] = rev
}

// BatchResult is one outcome of a batched cluster resolution.
type BatchResult = nameserver.BatchResult

// ResolveBatch resolves every path with at most one round-trip per shard:
// cache hits are answered locally, the rest are grouped by shard,
// deduplicated, and sent as wire batches that are all in flight at once,
// each with the same retry/failover policy as Resolve. Results are in
// argument order. A shard that stays unreachable yields per-item errors
// for its names only — healthy shards' results are always returned; the
// error is non-nil only when nothing at all was resolvable.
//
// The working set comes from a pool (see batchScratch), a hit is looked
// up by its key bytes, and the caller's goroutine issues every shard's
// round-trip before it collects any, over pooled wire call states; a warm
// client allocates only the returned slice and one key per distinct miss.
//
//namingvet:allocfree
func (c *Client) ResolveBatch(paths []core.Path) ([]BatchResult, error) {
	//namingvet:allocfree-exempt -- the result slice is handed to the caller
	out := make([]BatchResult, len(paths))
	if len(paths) == 0 {
		return out, nil
	}
	sc := c.getScratch(len(paths))
	defer c.putScratch(sc)

	// Partition into per-shard wire batches of unique keys.
	answered := 0 // paths with a definitive outcome (cache, success, or remote error)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		for i := range out {
			out[i] = BatchResult{Entity: core.Undefined, Err: ErrClientClosed}
		}
		return out, ErrClientClosed
	}
	for i, p := range paths {
		sc.slots[i] = batchSlot{shard: -1}
		if err := nameserver.CheckWirePath(p); err != nil {
			// A non-canonical name fails in its slot without touching the
			// cache or the wire; the rest of the batch proceeds.
			out[i] = BatchResult{Entity: core.Undefined, Err: err}
			answered++
			continue
		}
		sc.key = p.AppendString(sc.key[:0])
		if c.cache != nil {
			if entry, ok := lru.GetBytes(c.cache, sc.key); ok {
				c.hits++
				out[i] = BatchResult{Entity: entry.entity}
				answered++
				continue
			}
		}
		c.misses++
		slot, seen := sc.misses[string(sc.key)]
		if !seen {
			//namingvet:allocfree-exempt -- the miss key: the cache retains it
			key := string(sc.key)
			shard := c.routes.ShardFor(p)
			sb := &sc.shards[shard]
			slot = batchSlot{shard: int32(shard), k: int32(len(sb.paths))}
			sb.paths = append(sb.paths, p)
			sb.keys = append(sb.keys, key)
			sc.misses[key] = slot
		}
		sc.slots[i] = slot
	}
	c.mu.Unlock()

	// Every shard's round-trip is in flight before the first is awaited,
	// so the shards overlap with no goroutine of their own. A hung shard
	// costs about one call timeout however many others the batch touches
	// (see nameserver.Client.collect's grace for calls collected late).
	for s := range sc.shards {
		if sb := &sc.shards[s]; len(sb.paths) > 0 {
			c.issueShard(s, sb, -1)
		}
	}
	for s := range sc.shards {
		if sb := &sc.shards[s]; len(sb.paths) > 0 {
			c.collectShard(s, sb)
		}
	}

	var firstErr error
	c.mu.Lock()
	for s := range sc.shards {
		sb := &sc.shards[s]
		if len(sb.paths) == 0 {
			continue
		}
		if sb.err != nil {
			if firstErr == nil {
				firstErr = sb.err
			}
			continue
		}
		c.noteRevision(s, sb.rev, nil)
		if c.cache == nil {
			continue
		}
		for k, res := range sb.results {
			if res.Err == nil {
				c.cache.Put(sb.keys[k], cacheEntry{entity: res.Entity, shard: s})
			}
		}
	}
	c.mu.Unlock()
	for i, slot := range sc.slots {
		if slot.shard < 0 {
			continue
		}
		sb := &sc.shards[slot.shard]
		if sb.err != nil {
			// The shard stayed unreachable through every retry: its names
			// fail individually; other shards' answers stand.
			out[i] = BatchResult{Entity: core.Undefined, Err: sb.err}
			continue
		}
		out[i] = sb.results[slot.k]
		answered++
	}
	if firstErr != nil && answered == 0 {
		return out, firstErr
	}
	return out, nil
}

// batchScratch is one ResolveBatch call's working set. Calls draw it from
// the client's pool, so a warm client partitions a batch, deduplicates
// its misses and fans out without allocating.
type batchScratch struct {
	key    []byte               // cache-key bytes of the path being sorted
	slots  []batchSlot          // per path: where its answer comes from
	misses map[string]batchSlot // this batch's distinct misses
	shards []shardBatch         // per shard: its wire batch and outcome
}

// batchSlot locates one path's answer: result k of shard's wire batch, or
// none (shard -1) when the path was answered without the wire.
type batchSlot struct{ shard, k int32 }

// shardBatch is one shard's share of a batch: its distinct misses in wire
// order with their cache keys, the attempt in flight, then the outcome.
// The results buffer is kept across pooled uses.
type shardBatch struct {
	paths   []core.Path
	keys    []string
	conn    *sharedConn
	call    nameserver.BatchCall
	results []BatchResult
	rev     uint64
	err     error
}

// maxPooledBatch bounds the scratch the pool keeps: an outsized batch's
// working set is left to the collector rather than pinned.
const maxPooledBatch = 1024

// getScratch returns an empty working set for a batch of n paths.
func (c *Client) getScratch(n int) *batchScratch {
	sc, _ := c.scratch.Get().(*batchScratch)
	if sc == nil {
		//namingvet:allocfree-exempt -- amortized: one working set per concurrent batch caller, then pooled
		sc = &batchScratch{misses: make(map[string]batchSlot), shards: make([]shardBatch, len(c.shards))}
	}
	if cap(sc.slots) < n {
		//namingvet:allocfree-exempt -- amortized: the slot table grows to the largest pooled batch once
		sc.slots = make([]batchSlot, n)
	}
	sc.slots = sc.slots[:n]
	return sc
}

// putScratch empties sc — dropping the caller's paths, the keys and the
// results — and returns it to the pool.
func (c *Client) putScratch(sc *batchScratch) {
	if cap(sc.slots) > maxPooledBatch {
		return
	}
	clear(sc.misses)
	for s := range sc.shards {
		sb := &sc.shards[s]
		clear(sb.paths)
		clear(sb.keys)
		clear(sb.results)
		*sb = shardBatch{paths: sb.paths[:0], keys: sb.keys[:0], results: sb.results[:0]}
	}
	c.scratch.Put(sc)
}

// Stats returns cache hits and misses so far (coalesced lookups count as
// neither; see Coalesced).
func (c *Client) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Coalesced returns how many lookups were answered by piggybacking on a
// concurrent identical request instead of their own round-trip.
func (c *Client) Coalesced() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coalesced
}

// Purges returns how many times a shard revision advance purged that
// shard's cache entries.
func (c *Client) Purges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.purges
}

// Failovers returns how many transport failures triggered a retry or
// replica failover.
func (c *Client) Failovers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failovers
}

// Close closes every shared connection and fails requests that race or
// follow it: a batch in flight fails its shards' slots with
// ErrClientClosed or the transport error the closed connection gave.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	for _, p := range c.shards {
		p.close()
	}
}

// isRemote reports whether err is a definitive server-side answer (the
// name does not resolve) rather than a transport failure.
//
//namingvet:allocfree-exempt -- cold: only failed round-trips are classified
func isRemote(err error) bool {
	var re *nameserver.RemoteError
	return errors.As(err, &re)
}

// breaker tracks one replica's consecutive transport failures. Once they
// reach the set's threshold the replica is skipped until the cooldown
// passes; the next probe then either resets it or re-opens it.
type breaker struct {
	failures  int
	openUntil time.Time
}

// allows reports whether the replica may be dialed.
func (b *breaker) allows(now time.Time, threshold int) bool {
	return threshold <= 0 || b.failures < threshold || !now.Before(b.openUntil)
}

// sharedConn is a multiplexed wire connection tagged with the replica it
// reaches. Any number of shard requests use it concurrently; the wire
// client pipelines them.
type sharedConn struct {
	*nameserver.Client
	replica int
}

// replicaSet maintains at most one shared connection per replica of one
// shard. Concurrent requests multiplex over the same connection instead
// of checking out exclusive ones; a connection leaves the set only when a
// transport failure retires it (retire) or the set closes.
type replicaSet struct {
	network          string
	addrs            []string // replica addresses, primary first
	timeout          time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	// onDial, when non-nil, runs once for each connection installed as the
	// shared one, outside the set's mutex (it may perform wire I/O — the
	// push-invalidation subscription rides it).
	onDial func(*sharedConn)

	mu       sync.Mutex
	conns    []*sharedConn // per-replica shared connection, nil until dialed
	closed   bool
	breakers []breaker
}

// get returns the shared connection of a healthy replica, dialing one if
// none is up: the primary first, then the rest, skipping replicas whose
// breaker is open and trying the replica the caller just saw fail (avoid,
// -1 for none) last. It fails once the set is closed — including a dial
// that raced close, so no connection leaks past Close.
func (p *replicaSet) get(avoid int) (*sharedConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClientClosed
	}
	now := time.Now()
	// The candidate list lives on the stack: every request passes here,
	// and replica sets are small.
	var buf [8]int
	candidates := buf[:0]
	for r := range p.addrs {
		if r != avoid && p.breakers[r].allows(now, p.breakerThreshold) {
			candidates = append(candidates, r)
		}
	}
	if avoid >= 0 && avoid < len(p.addrs) && p.breakers[avoid].allows(now, p.breakerThreshold) {
		candidates = append(candidates, avoid)
	}
	// Reuse before dialing: the first candidate already up wins.
	for _, r := range candidates {
		if conn := p.conns[r]; conn != nil {
			p.mu.Unlock()
			return conn, nil
		}
	}
	p.mu.Unlock()
	if len(candidates) == 0 {
		//namingvet:allocfree-exempt -- cold: every replica's breaker is open
		return nil, fmt.Errorf("all %d replicas cooling down after repeated failures", len(p.addrs))
	}
	var lastErr error
	for _, r := range candidates {
		conn, err := p.dialReplica(r)
		if err != nil {
			p.bad(r)
			lastErr = err
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			return nil, ErrClientClosed
		}
		if winner := p.conns[r]; winner != nil {
			// Lost a dial race; the winner's connection is the shared one.
			p.mu.Unlock()
			_ = conn.Close()
			return winner, nil
		}
		p.conns[r] = conn
		p.mu.Unlock()
		if p.onDial != nil {
			p.onDial(conn)
		}
		return conn, nil
	}
	return nil, lastErr
}

// getReplica returns the shared connection to one specific replica,
// dialing it if needed. Unlike get it neither fails over nor consults the
// breaker — the write path uses it to reach the shard's primary and only
// the primary, failing cleanly when the primary is unreachable.
func (p *replicaSet) getReplica(r int) (*sharedConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClientClosed
	}
	if conn := p.conns[r]; conn != nil {
		p.mu.Unlock()
		return conn, nil
	}
	p.mu.Unlock()
	conn, err := p.dialReplica(r)
	if err != nil {
		p.bad(r)
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = conn.Close()
		return nil, ErrClientClosed
	}
	if winner := p.conns[r]; winner != nil {
		p.mu.Unlock()
		_ = conn.Close()
		return winner, nil
	}
	p.conns[r] = conn
	p.mu.Unlock()
	if p.onDial != nil {
		p.onDial(conn)
	}
	return conn, nil
}

// dialReplica dials one replica under the set's timeout, outside any lock
// (dialing is wire I/O; lockheld).
//
//namingvet:allocfree-exempt -- cold: a connection is dialed once, then shared by every request
func (p *replicaSet) dialReplica(r int) (*sharedConn, error) {
	var nc *nameserver.Client
	var err error
	if p.timeout > 0 {
		nc, err = nameserver.DialTimeout(p.network, p.addrs[r], p.timeout,
			nameserver.WithTimeout(p.timeout))
	} else {
		nc, err = nameserver.Dial(p.network, p.addrs[r])
	}
	if err != nil {
		return nil, err
	}
	return &sharedConn{Client: nc, replica: r}, nil
}

// ok resets a replica's breaker after a successful round-trip.
func (p *replicaSet) ok(replica int) {
	p.mu.Lock()
	p.breakers[replica] = breaker{}
	p.mu.Unlock()
}

// bad charges one transport failure to a replica's breaker, opening it at
// the threshold.
func (p *replicaSet) bad(replica int) {
	p.mu.Lock()
	b := &p.breakers[replica]
	b.failures++
	if p.breakerThreshold > 0 && b.failures >= p.breakerThreshold {
		b.openUntil = time.Now().Add(p.breakerCooldown)
	}
	p.mu.Unlock()
}

// retire charges a transport failure against conn's replica and drops
// conn from the set if it is still the shared one (a concurrent request
// may already have replaced it). The poisoned connection is closed either
// way; concurrent calls still on it fail fast and retry on a fresh one.
func (p *replicaSet) retire(conn *sharedConn) {
	p.mu.Lock()
	b := &p.breakers[conn.replica]
	b.failures++
	if p.breakerThreshold > 0 && b.failures >= p.breakerThreshold {
		b.openUntil = time.Now().Add(p.breakerCooldown)
	}
	if p.conns[conn.replica] == conn {
		p.conns[conn.replica] = nil
	}
	p.mu.Unlock()
	_ = conn.Close()
}

// close closes every shared connection; in-flight calls on them fail, and
// get fails from now on.
func (p *replicaSet) close() {
	p.mu.Lock()
	conns := p.conns
	p.conns = make([]*sharedConn, len(p.addrs))
	p.closed = true
	p.mu.Unlock()
	for _, conn := range conns {
		if conn != nil {
			_ = conn.Close()
		}
	}
}
