package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"namecoherence/internal/cas"
	"namecoherence/internal/cluster"
	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/snapstore"
)

// workload is one traffic mix. Every workload drives an in-process
// cluster over loopback TCP from this one process with at most two caller
// goroutines and at most two client connections (not counting the
// one-shot bootstrap seed dial).
type workload struct {
	name     string
	names    int // cold names in the tree
	shards   int
	replicas int
	stream   int // stream kind (gen.go)
	batch    int // names per ResolveBatch call; 0 means single Resolve calls
	lru      int // reader cache capacity; 0 means uncached
	churn    bool
}

// The workloads. Why each exists is recorded in DESIGN.md and
// BENCHMARK.json:
//   - resolve-scatter: every call pays the full single-name stack; cache,
//     batching and writes are bypassed.
//   - batch-zipf: per-call cost is amortised; LRU hits, batch partition and
//     dedup, and the two-shard fan-out dominate.
//   - churn-push: the only write path — replication, push invalidation,
//     the per-shard purge rule and snapshot commits.
var workloads = []workload{
	{name: "resolve-scatter", names: 65536, shards: 2, replicas: 1, stream: uniformStream},
	{name: "batch-zipf", names: 65536, shards: 2, replicas: 1, stream: zipfStream, batch: 32, lru: 4096},
	{name: "churn-push", names: 16384, shards: 1, replicas: 2, stream: churnStream, lru: 32768, churn: true},
}

// callers is how many reader goroutines the workload runs: two for the
// read workloads, one reader beside churn's writer.
func (wl workload) callers() int {
	if wl.churn {
		return 1
	}
	return readCallers
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Load-shape constants.
const (
	readCallers = 2 // read workloads: two callers share one cluster client
	// writeRate is churn's open-loop writer rate in unbind+bind pairs per
	// second.
	writeRate = 1000
	// commitEvery is how many writes pass between snapshot commits: a
	// count, not a timer, so commits land at the same points every run.
	commitEvery = 2000
	// probeTimeout bounds one coherence probe; a probe that has not seen
	// the new binding by then counts as a failure.
	probeTimeout = time.Second
)

// env is one set-up system: the cluster, its clients and the oracle.
type env struct {
	wl      workload
	spec    *Spec
	w       *core.World
	cl      *cluster.Cluster
	reader  *cluster.Client // shared by every reader goroutine
	writer  *cluster.Client // churn only
	st      *snapstore.Store
	expect  []core.Entity // oracle: entity of each cold name
	targets [2]core.Entity
	hotIdx  int // shard holding the hot directory
	cur     [hotNames]int
	failed  int // set-up answers that disagreed with the oracle
	// Set-up timings in seconds.
	setupS, bringupS float64
	drainMs          float64 // last finalCheck's DrainReplication time
}

func (e *env) close() {
	if e.reader != nil {
		e.reader.Close()
	}
	if e.writer != nil {
		e.writer.Close()
	}
	if e.cl != nil {
		e.cl.Close()
	}
}

// setup brings the workload's system up and times it. Read workloads time
// tree build, shard split, servers listening, client dial and route
// bootstrap. Churn times nsd's restart path: a first life commits the
// tree's snapshot to an in-memory store, then the measured cluster is
// restored from it (primary Restore, backup CatchUp), and the reader's
// cache is warmed. Computing the oracle is not timed.
func setup(wl workload, spec *Spec) (*env, error) {
	e := &env{wl: wl, spec: spec}
	start := time.Now()
	var opts []cluster.Option
	if wl.churn {
		e.st = snapstore.New(cas.NewStore(cas.NewMem()))
		opts = append(opts, cluster.WithSnapStore(e.st))
		first, err := cluster.New(core.NewWorld(), spec.Tree, wl.shards, opts...)
		if err != nil {
			return nil, fmt.Errorf("first life: %w", err)
		}
		first.Close()
	}
	e.w = core.NewWorld()
	bring := time.Now()
	cl, err := cluster.NewReplicated(e.w, spec.Tree, wl.shards, wl.replicas, opts...)
	if err != nil {
		return nil, fmt.Errorf("bring up cluster: %w", err)
	}
	e.bringupS = time.Since(bring).Seconds()
	e.cl = cl

	oracleStart := time.Now()
	if err := e.computeOracle(); err != nil {
		e.close()
		return nil, err
	}
	oracleS := time.Since(oracleStart).Seconds()

	var copts []cluster.ClientOption
	if wl.lru > 0 {
		copts = append(copts, cluster.WithLRU(wl.lru))
	}
	if wl.churn {
		copts = append(copts, cluster.WithPushInvalidation())
	}
	seed := cl.Addrs()[0]
	if e.reader, err = cluster.Dial("tcp", seed, copts...); err != nil {
		e.close()
		return nil, fmt.Errorf("dial reader: %w", err)
	}
	if wl.churn {
		if e.writer, err = cluster.Dial("tcp", seed); err != nil {
			e.close()
			return nil, fmt.Errorf("dial writer: %w", err)
		}
		e.failed += e.warm()
	}
	e.setupS = time.Since(start).Seconds() - oracleS
	return e, nil
}

// computeOracle resolves every name in-process over the cluster's own
// trees — the answer every client must give.
func (e *env) computeOracle() error {
	routes := e.cl.Routes()
	resolve := func(p core.Path) (core.Entity, error) {
		tr := e.cl.Trees[routes.ShardFor(p)]
		return e.w.Resolve(tr.RootContext(), p)
	}
	e.expect = make([]core.Entity, len(e.spec.Names))
	for i, p := range e.spec.Names {
		ent, err := resolve(p)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", p, err)
		}
		e.expect[i] = ent
	}
	for i, p := range e.spec.Targets {
		ent, err := resolve(p)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", p, err)
		}
		e.targets[i] = ent
	}
	e.hotIdx = routes.ShardFor(e.spec.HotDir)
	return nil
}

// warm fills the reader's cache with every cold name, checking each
// answer; it returns the number of wrong answers.
func (e *env) warm() int {
	const chunk = 256
	bad := 0
	for lo := 0; lo < len(e.spec.Names); lo += chunk {
		hi := min(lo+chunk, len(e.spec.Names))
		res, err := e.reader.ResolveBatch(e.spec.Names[lo:hi])
		if err != nil {
			return bad + hi - lo
		}
		for k, r := range res {
			if r.Err != nil || r.Entity != e.expect[lo+k] {
				bad++
			}
		}
	}
	return bad
}

// name returns the path for a stream index (cold names, then hot names).
func (e *env) name(i int) core.Path {
	if i < len(e.spec.Names) {
		return e.spec.Names[i]
	}
	return e.spec.Hot[i-len(e.spec.Names)]
}

// check reports whether one answer is correct. A cold name must resolve
// to its oracle entity. A hot name is being rebound under the reader, so
// either target is correct, and so is "not bound" (the gap between a
// pair's unbind and bind).
func (e *env) check(i int, got core.Entity, err error) bool {
	if i < len(e.expect) {
		return err == nil && got == e.expect[i]
	}
	if err != nil {
		var re *nameserver.RemoteError
		return errors.As(err, &re)
	}
	return got == e.targets[0] || got == e.targets[1]
}

// windows divides a load's measured time into equal windows. Rate,
// latency and CPU figures are computed per window and reported as the
// median over windows, so a transient stall on a shared machine moves one
// window, not the run's figure.
type windows struct {
	start time.Time
	width time.Duration
	n     int
}

// windowWidth is the target width of one measurement window.
const windowWidth = 2 * time.Second

func newWindows(start time.Time, d time.Duration) windows {
	n := max(1, int((d+windowWidth/2)/windowWidth))
	return windows{start: start, width: d / time.Duration(n), n: n}
}

func (w windows) end() time.Time { return w.start.Add(time.Duration(w.n) * w.width) }

// index returns the window holding t, or -1 past the last one.
func (w windows) index(t time.Time) int {
	i := int(t.Sub(w.start) / w.width)
	if i < 0 || i >= w.n {
		return -1
	}
	return i
}

// readResult is what the reader goroutines measured. Calls completing
// after the last window are checked and counted in names but not timed.
type readResult struct {
	lat    [][]float64 // per window: per-call latency, µs
	perWin []int       // per window: names resolved
	names  int
	failed int
}

// runReaders runs the workload's closed-loop readers until the last
// window ends. With a tracer each call is also recorded as a span.
func (e *env) runReaders(seed uint64, callers int, win windows, tr *tracer) readResult {
	results := make([]readResult, callers)
	bufs := make([]*spanBuf, callers)
	if tr != nil {
		for c := range bufs {
			bufs[c] = tr.buf(1 << 18)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c] = e.readLoop(newStream(e.wl.stream, seed, c, len(e.spec.Names)), c, win, bufs[c])
		}()
	}
	wg.Wait()
	out := readResult{lat: make([][]float64, win.n), perWin: make([]int, win.n)}
	for _, r := range results {
		for i := range out.lat {
			out.lat[i] = append(out.lat[i], r.lat[i]...)
			out.perWin[i] += r.perWin[i]
		}
		out.names += r.names
		out.failed += r.failed
	}
	return out
}

// readLoop is one closed-loop caller: it issues its next call only after
// the previous one returned.
func (e *env) readLoop(st *stream, caller int, win windows, rec *spanBuf) readResult {
	r := readResult{lat: make([][]float64, win.n), perWin: make([]int, win.n)}
	root, rootStart := rec.newID(), rec.now()
	spanName := "load.resolve"
	if e.wl.batch > 0 {
		spanName = "load.batch"
	}
	idx := make([]int, e.wl.batch)
	paths := make([]core.Path, e.wl.batch)
	req := uint64(caller) << 40
	deadline := win.end()
	for {
		var t0, t1 time.Time
		n := 1
		if e.wl.batch > 0 {
			for k := range paths {
				idx[k] = st.Next()
				paths[k] = e.name(idx[k])
			}
			t0 = time.Now()
			res, err := e.reader.ResolveBatch(paths)
			t1 = time.Now()
			for k := range paths {
				if err != nil || !e.check(idx[k], res[k].Entity, res[k].Err) {
					r.failed++
				}
			}
			n = len(paths)
		} else {
			i := st.Next()
			p := e.name(i)
			t0 = time.Now()
			got, err := e.reader.Resolve(p)
			t1 = time.Now()
			if !e.check(i, got, err) {
				r.failed++
			}
		}
		r.names += n
		if w := win.index(t1); w >= 0 {
			r.lat[w] = append(r.lat[w], float64(t1.Sub(t0).Nanoseconds())/1e3)
			r.perWin[w] += n
		}
		rec.record(spanName, root, req, rec.at(t0), rec.at(t1))
		req++
		if !t1.Before(deadline) {
			break
		}
	}
	rec.add(root, "load.caller", 0, uint64(caller)<<40, rootStart, rec.now())
	return r
}

// writeResult is what a paced writer measured.
type writeResult struct {
	pairs, failed int
	perWin        []int // pairs due in each window
	probeHits     int   // probe resolves answered from the cache
	probeMisses   int
	pairLat       []float64 // µs from the pair's due time to its bind ack
	window        []float64 // µs from the bind ack until the probe saw it
	late          []float64 // µs the generator started each pair after its due time
	commitMs      []float64
	pendingMax    int
}

// runWriter rebinds the hot names between the two targets in
// unbind+bind pairs, open loop at rate pairs per second until the last
// window ends.
// Each pair is timed from when it was due, so a stall is charged to every
// pair it delays. After each acknowledged bind, the probe client (push
// subscribed) resolves the name until it returns the new target: that
// wait is the coherence window. With commits, every commitEvery writes
// the hot shard's primary is snapshotted under Server.Stable and
// committed, as nsd -data does.
func (e *env) runWriter(w, probe *cluster.Client, rate float64, win windows, commits bool, rec *spanBuf) writeResult {
	r := writeResult{perWin: make([]int, win.n)}
	period := time.Duration(float64(time.Second) / rate)
	start, deadline := win.start, win.end()
	primary := e.cl.Server(e.hotIdx)
	writes := 0
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		begun := time.Now()
		r.late = append(r.late, float64(begun.Sub(due).Nanoseconds())/1e3)
		if i := win.index(due); i >= 0 {
			r.perWin[i]++
		}
		h := k % hotNames
		next := 1 - e.cur[h]
		name := e.spec.Hot[h][len(e.spec.Hot[h])-1]
		r.pairs++
		err := w.Unbind(e.spec.HotDir, name)
		if err == nil {
			err = w.Bind(e.spec.HotDir, name, e.targets[next])
		}
		ack := time.Now()
		writes += 2
		if err != nil {
			r.failed++
			continue
		}
		e.cur[h] = next
		r.pairLat = append(r.pairLat, float64(ack.Sub(due).Nanoseconds())/1e3)
		// The probe's resolves go through the reader's client; bracket
		// them so the reader's own hit ratio can be told apart.
		h0, m0 := probe.Stats()
		for {
			got, err := probe.Resolve(e.spec.Hot[h])
			if err == nil && got == e.targets[next] {
				break
			}
			if time.Since(ack) > probeTimeout {
				r.failed++
				break
			}
			// Yield: the push frame this probe waits for is read by the
			// client's own goroutine, which a spinning probe would starve.
			runtime.Gosched()
		}
		seen := time.Now()
		h1, m1 := probe.Stats()
		r.probeHits += h1 - h0
		r.probeMisses += m1 - m0
		r.window = append(r.window, float64(seen.Sub(ack).Nanoseconds())/1e3)
		pair := rec.record("load.write_pair", 0, uint64(k), rec.at(due), rec.at(ack))
		rec.record("load.probe", pair, uint64(k), rec.at(ack), rec.at(seen))
		r.pendingMax = max(r.pendingMax, e.cl.ReplicationPending())
		if commits && writes%commitEvery == 0 {
			c0 := time.Now()
			if err := e.commit(primary, e.st); err != nil {
				r.failed++
			}
			r.commitMs = append(r.commitMs, float64(time.Since(c0).Nanoseconds())/1e6)
		}
	}
	return r
}

// commit snapshots the hot shard's primary at a stable revision and
// commits it: the step nsd's snapshot keeper runs.
func (e *env) commit(primary *nameserver.Server, st *snapstore.Store) error {
	var rev uint64
	var root cas.Hash
	var err error
	primary.Stable(func() {
		rev = primary.Revision()
		root, err = e.cl.ShardRoot(st, e.hotIdx, 0)
	})
	if err != nil {
		return err
	}
	return st.Commit(e.hotIdx, rev, root)
}

// finalCheck runs once the writers have stopped. It drains replication
// (timed into drainMs); on a replicated cluster it then requires weak
// coherence 1.0 between the hot shard's replicas over the full slate plus
// the hot names, and every hot name to resolve to the writer's last
// acknowledged target on every replica. It returns the names checked and
// the failures found.
func (e *env) finalCheck() (checked, failed int) {
	t0 := time.Now()
	e.cl.DrainReplication()
	e.drainMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	if e.wl.replicas < 2 {
		return 0, 0
	}
	var clients []*nameserver.Client
	var resolvers []coherence.Resolver
	for r, addr := range e.cl.Routes().ReplicaAddrs(e.hotIdx) {
		c, err := nameserver.Dial("tcp", addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: final check: dial replica %d: %v\n", r, err)
			return 1, 1
		}
		defer c.Close()
		clients = append(clients, c)
		resolvers = append(resolvers, c)
	}
	slate := append(append([]core.Path(nil), e.spec.Names...), e.spec.Hot...)
	rep := coherence.MeasureResolvers(e.w, resolvers, slate)
	// Every slate name is bound, so a vacuous outcome is a failure too.
	failed = rep.Incoherent + rep.Vacuous
	checked = rep.Total
	for h, p := range e.spec.Hot {
		want := e.targets[e.cur[h]]
		for _, c := range clients {
			got, err := c.Resolve(p)
			if err != nil || (got != want && !e.w.SameReplica(got, want)) {
				failed++
			}
			checked++
		}
	}
	return checked, failed
}

// pacedWrites runs one second of the churn writer against a read-only
// workload's cluster, observed by a push-subscribed cached client, and
// returns what the writer measured and the observer's counter deltas.
// It runs after the read load, so the read metrics never see a write.
func (e *env) pacedWrites(rec *spanBuf) (writeResult, counters, error) {
	seed := e.cl.Addrs()[0]
	w, err := cluster.Dial("tcp", seed)
	if err != nil {
		return writeResult{}, counters{}, fmt.Errorf("dial writer: %w", err)
	}
	defer w.Close()
	obs, err := cluster.Dial("tcp", seed, cluster.WithLRU(64), cluster.WithPushInvalidation())
	if err != nil {
		return writeResult{}, counters{}, fmt.Errorf("dial observer: %w", err)
	}
	defer obs.Close()
	for _, p := range e.spec.Hot {
		// Fill the observer's cache; its first dial subscribes for push.
		if _, err := obs.Resolve(p); err != nil {
			return writeResult{}, counters{}, fmt.Errorf("observer resolve %s: %w", p, err)
		}
	}
	before := snapCounters(obs, e.cl)
	wr := e.runWriter(w, obs, writeRate, newWindows(time.Now(), time.Second), false, rec)
	return wr, snapCounters(obs, e.cl).sub(before), nil
}

// heapInuseMB forces a collection and returns HeapInuse in MiB.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
