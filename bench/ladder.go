package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"namecoherence/internal/cas"
	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/snapstore"
	"namecoherence/internal/treespec"
)

// The read ladder replays one request list at every layer of the read
// stack, one caller, under shared request IDs:
//
//	core             World.Resolve on the owning shard's export context
//	nameserver.pipe  nameserver.Client over net.Pipe to Server.ServeConn
//	nameserver.tcp   nameserver.Client dialed to the shard's primary
//	cluster          an uncached cluster.Client (Resolve)
//
// Each request climbs all four levels before the next one starts, so the
// levels of one request are timed moments apart and a stall on the shared
// machine cannot land on one level only. Each level is entered only
// through public functions, so a layer's cost is the difference between
// adjacent levels for the same request. A level-major pass over the first
// ladderAllocNames requests counts allocations, and the cluster client
// then resolves the whole list again with ResolveBatch (cluster.batch).

// ladderNames is how many requests the read ladder replays.
const ladderNames = 16384

// ladderAllocNames is how many requests the allocation pass replays per
// level.
const ladderAllocNames = 4096

// ladderBatch is the cluster.batch level's batch size.
const ladderBatch = 32

// ladderPairs is how many unbind+bind pairs each write-ladder level runs.
const ladderPairs = 1000

// level is one ladder rung's result. Its timings are in its spans.
type level struct {
	allocs   float64 // heap allocations per name, client and server
	bytes    float64 // heap bytes per name, client and server
	failures int
}

// memDelta measures heap allocations made by fn.
func memDelta(fn func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// ladderRequests returns the first ladderNames names of the workload's
// caller streams, alternating callers, as indices.
func (e *env) ladderRequests(seed uint64) []int {
	callers := e.wl.callers()
	streams := make([]*stream, callers)
	for c := range streams {
		streams[c] = newStream(e.wl.stream, seed, c, len(e.spec.Names))
	}
	out := make([]int, ladderNames)
	for k := range out {
		out[k] = streams[k%callers].Next()
	}
	return out
}

// rung is one ladder level: its span name and how it resolves a request.
type rung struct {
	span    string
	resolve func(i int) (core.Entity, error)
}

// readLadder climbs the read ladder over the workload's request list and
// returns each level's allocation figures and failures, keyed by span
// name. Every level must return what core returned.
func (e *env) readLadder(seed uint64, rec *spanBuf) (map[string]level, error) {
	reqs := e.ladderRequests(seed)
	routes := e.cl.Routes()
	shardOf := func(i int) int { return routes.ShardFor(e.name(i)) }

	// Pipe: one client per shard, served by the shard primary's own server.
	var pipeClients []*nameserver.Client
	var wg sync.WaitGroup
	defer wg.Wait()
	for s := 0; s < e.cl.Shards(); s++ {
		cEnd, sEnd := net.Pipe()
		srv := e.cl.Server(s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.ServeConn(sEnd)
		}()
		c := nameserver.NewClient(cEnd)
		defer c.Close()
		pipeClients = append(pipeClients, c)
	}
	var tcpClients []*nameserver.Client
	for s := range routes.Addrs {
		c, err := nameserver.Dial("tcp", routes.Addrs[s])
		if err != nil {
			return nil, fmt.Errorf("dial shard %d: %w", s, err)
		}
		defer c.Close()
		tcpClients = append(tcpClients, c)
	}
	cc, err := cluster.Dial("tcp", routes.Addrs[0])
	if err != nil {
		return nil, fmt.Errorf("dial ladder cluster client: %w", err)
	}
	defer cc.Close()

	rungs := []rung{
		{"core.resolve", func(i int) (core.Entity, error) {
			return e.w.Resolve(e.cl.Trees[shardOf(i)].RootContext(), e.name(i))
		}},
		{"nameserver.pipe.resolve", func(i int) (core.Entity, error) {
			return pipeClients[shardOf(i)].Resolve(e.name(i))
		}},
		{"nameserver.tcp.resolve", func(i int) (core.Entity, error) {
			return tcpClients[shardOf(i)].Resolve(e.name(i))
		}},
		{"cluster.resolve", func(i int) (core.Entity, error) { return cc.Resolve(e.name(i)) }},
	}
	out := make(map[string]level)
	failures := make([]int, len(rungs))
	// Core's answers are what every higher level must return (hot names
	// are stable now: every writer has stopped).
	base := make([]core.Entity, len(reqs))
	phase, phaseStart := rec.newID(), rec.now()
	for k, i := range reqs {
		reqSpan, reqStart := rec.newID(), rec.now()
		for j, rg := range rungs {
			t0 := time.Now()
			got, err := rg.resolve(i)
			t1 := time.Now()
			if j == 0 {
				base[k] = got
			}
			if err != nil || got != base[k] {
				failures[j]++
			}
			rec.record(rg.span, reqSpan, uint64(k), rec.at(t0), rec.at(t1))
		}
		rec.add(reqSpan, "ladder.request", phase, uint64(k), reqStart, rec.now())
	}
	rec.add(phase, "ladder.read", 0, 0, phaseStart, rec.now())
	for j, rg := range rungs {
		m, b := memDelta(func() {
			for _, i := range reqs[:ladderAllocNames] {
				_, _ = rg.resolve(i)
			}
		})
		out[rg.span] = level{
			allocs:   float64(m) / ladderAllocNames,
			bytes:    float64(b) / ladderAllocNames,
			failures: failures[j],
		}
	}

	// Batches: request IDs are batch indices.
	batches := len(reqs) / ladderBatch
	var lv level
	phase, phaseStart = rec.newID(), rec.now()
	paths := make([]core.Path, ladderBatch)
	for k := 0; k < batches; k++ {
		for j := range paths {
			paths[j] = e.name(reqs[k*ladderBatch+j])
		}
		t0 := time.Now()
		res, err := cc.ResolveBatch(paths)
		t1 := time.Now()
		for j := range paths {
			if err != nil || res[j].Err != nil || res[j].Entity != base[k*ladderBatch+j] {
				lv.failures++
			}
		}
		rec.record("cluster.batch", phase, uint64(k), rec.at(t0), rec.at(t1))
	}
	rec.add(phase, "ladder.cluster.batch", 0, 0, phaseStart, rec.now())
	out["cluster.batch"] = lv
	return out, nil
}

// writeLadder runs closed-loop unbind+bind pairs on one hot name at three
// levels — the primary's Server in-process, a nameserver.Client over TCP
// to the primary, and a cluster.Client — one span per pair, and returns
// the number of pairs that failed.
func (e *env) writeLadder(rec *spanBuf) (int, error) {
	primary := e.cl.Server(e.hotIdx)
	h := 0
	name := e.spec.Hot[h][len(e.spec.Hot[h])-1]
	failed := 0
	pairs := func(label string, unbind func() error, bind func(core.Entity) error) {
		phase, phaseStart := rec.newID(), rec.now()
		for k := 0; k < ladderPairs; k++ {
			next := 1 - e.cur[h]
			t0 := time.Now()
			err := unbind()
			if err == nil {
				err = bind(e.targets[next])
			}
			t1 := time.Now()
			if err != nil {
				failed++
				continue
			}
			e.cur[h] = next
			rec.record(label, phase, uint64(k), rec.at(t0), rec.at(t1))
		}
		rec.add(phase, "ladder."+label, 0, 0, phaseStart, rec.now())
		e.cl.DrainReplication()
	}
	pairs("write.server", func() error {
		_, err := primary.Unbind(e.spec.HotDir, name)
		return err
	}, func(t core.Entity) error {
		_, err := primary.Bind(e.spec.HotDir, name, t)
		return err
	})
	wc, err := nameserver.Dial("tcp", e.cl.Routes().Addrs[e.hotIdx])
	if err != nil {
		return failed, fmt.Errorf("dial primary: %w", err)
	}
	defer wc.Close()
	pairs("write.wire", func() error {
		_, err := wc.Unbind(e.spec.HotDir, name)
		return err
	}, func(t core.Entity) error {
		_, err := wc.Bind(e.spec.HotDir, name, t)
		return err
	})
	cc, err := cluster.Dial("tcp", e.cl.Addrs()[0])
	if err != nil {
		return failed, fmt.Errorf("dial ladder writer: %w", err)
	}
	defer cc.Close()
	pairs("write.cluster", func() error {
		return cc.Unbind(e.spec.HotDir, name)
	}, func(t core.Entity) error {
		return cc.Bind(e.spec.HotDir, name, t)
	})
	return failed, nil
}

// snapResult is the snapshot ladder's timings.
type snapResult struct {
	snapshotMs, commitMs, restoreMs, catchupMs float64
	copied, pruned                             int
}

// snapLadder times each snapstore step nsd's durability path takes, on
// the hot shard's primary tree: a first snapshot into an empty store, a
// commit of an unchanged tree under Server.Stable (as the keeper does),
// a restore into a fresh world, and a backup's catch-up into an empty CAS.
func (e *env) snapLadder(rec *spanBuf) (snapResult, error) {
	var r snapResult
	st := snapstore.New(cas.NewStore(cas.NewMem()))
	step := func(name string, fn func() error) (float64, error) {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		rec.record(name, 0, 0, rec.at(t0), rec.at(t1))
		return float64(t1.Sub(t0).Nanoseconds()) / 1e6, err
	}
	var root cas.Hash
	var err error
	if r.snapshotMs, err = step("snapstore.snapshot", func() error {
		root, err = st.Snapshot(e.w, e.cl.Trees[e.hotIdx].Root)
		return err
	}); err != nil {
		return r, fmt.Errorf("snapshot: %w", err)
	}
	if r.commitMs, err = step("snapstore.commit", func() error {
		return e.commit(e.cl.Server(e.hotIdx), st)
	}); err != nil {
		return r, fmt.Errorf("commit: %w", err)
	}
	if r.restoreMs, err = step("snapstore.restore", func() error {
		_, err := st.Restore(root, core.NewWorld(), "ladder")
		return err
	}); err != nil {
		return r, fmt.Errorf("restore: %w", err)
	}
	if r.catchupMs, err = step("snapstore.catchup", func() error {
		r.copied, r.pruned, err = st.CatchUp(cas.NewMem(), root)
		return err
	}); err != nil {
		return r, fmt.Errorf("catch up: %w", err)
	}
	return r, nil
}

// buildMs times the treespec layer alone: splitting the spec across the
// workload's shards and building one tree per shard in a fresh world.
func buildMs(wl workload, spec *Spec, rec *spanBuf) (float64, error) {
	t0 := time.Now()
	plan, err := treespec.Split(spec.Tree, wl.shards)
	if err != nil {
		return 0, err
	}
	w := core.NewWorld()
	for i, s := range plan.Specs {
		if _, err := treespec.Build(s, w, fmt.Sprintf("shard%d", i)); err != nil {
			return 0, err
		}
	}
	t1 := time.Now()
	rec.record("treespec.build", 0, 0, rec.at(t0), rec.at(t1))
	return float64(t1.Sub(t0).Nanoseconds()) / 1e6, nil
}
