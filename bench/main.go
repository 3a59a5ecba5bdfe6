// Command bench is the repository benchmark. It generates one seeded
// workload, brings up an in-process naming cluster with the constructors
// nsd uses, drives it over loopback TCP from this one process, checks
// every answer against an in-process oracle, and prints each metric by
// name and unit; the last line of standard output is a JSON summary.
//
//	bench --workload resolve-scatter --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics: it splits the measured time between an untraced and
// a traced run of the same load, replays the workload's name stream up
// the layer ladder (ladder.go), and writes every span to
// .bench_build/trace/<workload>.spans.tsv.gz. With --spread it instead
// reads result lines on standard input and prints each metric's median
// and quartile spread. DESIGN.md records the workloads, the metrics and
// the layer each per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"namecoherence/internal/cluster"
)

// setupReps is how many times each run brings its system up; setup_s is
// the median, and the last system is the one measured.
const setupReps = 7

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout))
}

func run(args []string, stdin io.Reader, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "where traced runs write their spans")
	spread := fs.Bool("spread", false, "read result lines on stdin and print medians and spreads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spread {
		if err := printSpread(stdin, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload (one of resolve-scatter, batch-zipf, churn-push), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	out, err := measure(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *traceDir, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := checkMetrics(out.Metrics, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "bench: metric %s has no usable value\n", name)
			return 1
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the summary line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// report collects metrics and echoes each as a human-readable line.
type report struct {
	w   io.Writer
	res Result
}

func (r *report) put(name string, value float64, unit string) {
	r.res.Metrics[name] = Metric{Value: value, Unit: unit}
	r.info(name, value, unit)
}

// info prints a line without reporting it in the summary.
func (r *report) info(name string, value float64, unit string) {
	fmt.Fprintf(r.w, "%-32s %14.4f %s\n", name, value, unit)
}

func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.w, "# "+format+"\n", args...)
}

// tally adds operations attempted and failed.
func (r *report) tally(attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// counters is a snapshot of the public counters one load phase moves.
type counters struct {
	hits, misses, coalesced, purges, failovers, invals, served int
}

func snapCounters(c *cluster.Client, cl *cluster.Cluster) counters {
	h, m := c.Stats()
	return counters{
		hits: h, misses: m, coalesced: c.Coalesced(), purges: c.Purges(),
		failovers: c.Failovers(), invals: c.Invalidations(), served: cl.Served(),
	}
}

func (a counters) sub(b counters) counters {
	return counters{
		hits: a.hits - b.hits, misses: a.misses - b.misses, coalesced: a.coalesced - b.coalesced,
		purges: a.purges - b.purges, failovers: a.failovers - b.failovers,
		invals: a.invals - b.invals, served: a.served - b.served,
	}
}

// phase is one measured load.
type phase struct {
	win      windows
	read     readResult
	write    writeResult
	elapsed  time.Duration
	cpu      []time.Duration // process user+sys per window
	gcCPU    float64         // share of available CPU spent in GC
	counters counters
}

// namesPerS is the reader rate over the whole phase.
func (p *phase) namesPerS() float64 { return float64(p.read.names) / p.elapsed.Seconds() }

// perWindow returns f applied to each window, for a median over windows.
func (p *phase) perWindow(f func(i int) float64) []float64 {
	out := make([]float64, p.win.n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// load runs the workload's callers for d: read workloads run two
// closed-loop readers; churn runs one closed-loop reader and the paced
// writer, which probes through the reader's client and commits snapshots.
// Meanwhile this goroutine samples process CPU time at every window
// boundary.
func (e *env) load(seed uint64, d time.Duration, tr *tracer) phase {
	before := snapCounters(e.reader, e.cl)
	gc0, all0 := gcSeconds()
	cpu0 := cpuTime()
	p := phase{win: newWindows(time.Now(), d)}
	var wg sync.WaitGroup
	if e.wl.churn {
		var wrec *spanBuf
		if tr != nil {
			wrec = tr.buf(1 << 15)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.write = e.runWriter(e.writer, e.reader, writeRate, p.win, true, wrec)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.read = e.runReaders(seed, e.wl.callers(), p.win, tr)
	}()
	for i := 1; i <= p.win.n; i++ {
		time.Sleep(time.Until(p.win.start.Add(time.Duration(i) * p.win.width)))
		cpu := cpuTime()
		p.cpu = append(p.cpu, cpu-cpu0)
		cpu0 = cpu
	}
	wg.Wait()
	p.elapsed = time.Since(p.win.start)
	gc1, all1 := gcSeconds()
	if all1 > all0 {
		p.gcCPU = (gc1 - gc0) / (all1 - all0)
	}
	p.counters = snapCounters(e.reader, e.cl).sub(before)
	return p
}

// measure sets the workload up setupReps times, measures the last system,
// checks it, and reports.
func measure(wl workload, seed uint64, d time.Duration, traced bool, traceDir string, w io.Writer) (Result, error) {
	r := &report{w: w, res: Result{Metrics: make(map[string]Metric)}}
	spec := Generate(seed, wl.names)
	r.note("workload %s seed %d: %d names, depth counts %v, %d shard(s) x %d replica(s)",
		wl.name, seed, len(spec.Names), spec.Depths()[minDepth:], wl.shards, wl.replicas)
	r.note("one process; clients reach the servers over loopback TCP, not a real network link")

	var e *env
	var setupS, bringupS []float64
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC()
		var err error
		if e, err = setup(wl, spec); err != nil {
			return r.res, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, e.setupS)
		bringupS = append(bringupS, e.bringupS*1e3)
	}
	defer e.close()
	r.note("set-up times (s): %.3f", setupS)
	if wl.churn {
		r.tally(len(spec.Names), e.failed)
	}

	if traced {
		if err := measureTraced(r, e, seed, d, setupS, bringupS, traceDir); err != nil {
			return r.res, err
		}
	} else {
		measureEndToEnd(r, e, seed, d, setupS)
	}
	r.info("failed_ratio", float64(r.res.Failed)/float64(max(r.res.Attempted, 1)), "ratio")
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// measureEndToEnd runs one untraced load window and reports the
// end-to-end metrics.
func measureEndToEnd(r *report, e *env, seed uint64, d time.Duration, setupS []float64) {
	r.put("setup_s", Median(setupS), "s")
	reportLoad(r, e.load(seed, d, nil), e.wl.churn)
	r.tally(e.finalCheck())
	// The load's samples are unreachable now, so the live heap holds the
	// system and its inputs only.
	r.put("live_heap_mb", heapInuseMB(), "MB")
}

// reportLoad reports one untraced load window's end-to-end metrics.
func reportLoad(r *report, p phase, churn bool) {
	r.tally(p.read.names+p.write.pairs, p.read.failed+p.write.failed+p.counters.failovers)
	w := p.win.width.Seconds()
	r.note("%d windows of %.2fs; rates, latencies and CPU are medians over windows", p.win.n, w)
	nps := p.perWindow(func(i int) float64 { return float64(p.read.perWin[i]) / w })
	r.note("names/s per window: %.0f", nps)
	r.put("names_per_s", Median(nps), "1/s")
	var all []float64
	for _, l := range p.read.lat {
		all = append(all, l...)
	}
	r.note("read latency per call, all windows (us): %s", Summarise(all))
	r.put("read_p50_us", Median(p.perWindow(func(i int) float64 { return Summarise(p.read.lat[i]).P50 })), "us")
	p99s := p.perWindow(func(i int) float64 { return Summarise(p.read.lat[i]).P99 })
	r.note("read p99 per window (us): %.0f", p99s)
	r.info("read_p99_us", Median(p99s), "us")
	r.put("cpu_us_per_op", Median(p.perWindow(func(i int) float64 {
		ops := p.read.perWin[i]
		if p.write.perWin != nil {
			ops += p.write.perWin[i]
		}
		return float64(p.cpu[i].Nanoseconds()) / 1e3 / float64(ops)
	})), "us")
	if churn {
		wd := Summarise(p.write.pairLat)
		cw := Summarise(p.write.window)
		r.note("write pair latency from due time (us): %s", wd)
		r.note("coherence window (us): %s", cw)
		r.info("write_p50_us", wd.P50, "us")
		r.info("write_p99_us", wd.P99, "us")
		r.info("coherence_window_p50_us", cw.P50, "us")
		r.info("coherence_window_p99_us", cw.P99, "us")
		r.note("generator lateness (us): %s; %d snapshot commits", Summarise(p.write.late), len(p.write.commitMs))
	}
}

// measureTraced splits d between an untraced and a traced run of the same
// load, then climbs the read, write and snapshot ladders, and reports the
// per-layer metrics.
func measureTraced(r *report, e *env, seed uint64, d time.Duration, setupS, bringupS []float64, traceDir string) error {
	tr := newTracer()
	rec := tr.buf(1 << 16)
	u := e.load(seed, d/2, nil)
	t := e.load(seed, d/2, tr)
	for _, p := range []phase{u, t} {
		r.tally(p.read.names+p.write.pairs, p.read.failed+p.write.failed+p.counters.failovers)
	}
	r.note("untraced %.0f names/s, traced %.0f names/s, %d spans", u.namesPerS(), t.namesPerS(), tr.count())
	r.put("bench.tracing_overhead", u.namesPerS()/t.namesPerS()-1, "ratio")
	r.put("gc.cpu_fraction", u.gcCPU, "ratio")
	c := u.counters
	// Churn's coherence probes run through the reader's client; leave
	// their resolves out of the reader's hit ratio.
	hits, misses := c.hits-u.write.probeHits, c.misses-u.write.probeMisses
	r.put("lru.hit_ratio", ratio(hits, hits+misses), "ratio")
	r.put("nameserver.frames_per_name", ratio(c.served, u.read.names), "ratio")
	r.put("cluster.coalesced", float64(u.counters.coalesced+t.counters.coalesced), "count")
	r.put("cluster.failovers", float64(u.counters.failovers+t.counters.failovers), "count")
	ms, err := buildMs(e.wl, e.spec, rec)
	if err != nil {
		return fmt.Errorf("treespec build: %w", err)
	}
	r.put("treespec.build_ms", ms, "ms")
	r.put("cluster.bringup_ms", Median(bringupS), "ms")
	r.info("setup_s", Median(setupS), "s")

	// The workload's own writer, or for read-only workloads one second of
	// the same paced writer observed by a push-subscribed cached client,
	// gives the write-side counters.
	w, wc := u.write, c
	if !e.wl.churn {
		if w, wc, err = e.pacedWrites(rec); err != nil {
			return err
		}
		r.tally(w.pairs, w.failed)
	}
	writes := 2 * w.pairs
	r.put("cluster.purges_per_write", ratio(wc.purges, writes), "ratio")
	r.put("push.invalidations_per_write", ratio(wc.invals, writes), "ratio")
	r.put("replication.pending_max", float64(w.pendingMax), "count")
	r.put("bench.generator_late_p99_us", Summarise(w.late).P99, "us")

	r.tally(e.finalCheck())
	r.put("replication.drain_ms", e.drainMs, "ms")

	lad, err := e.readLadder(seed, rec)
	if err != nil {
		return err
	}
	for _, lv := range lad {
		r.tally(ladderNames, lv.failures)
	}
	med := func(span string) float64 { return Median(values(tr.durations(span))) }
	r.note("read ladder, %d names, one caller, levels interleaved per request; median ns per name and self time over the level below:", ladderNames)
	prev := ""
	for _, lvl := range []string{"core.resolve", "nameserver.pipe.resolve", "nameserver.tcp.resolve", "cluster.resolve"} {
		self := med(lvl)
		if prev != "" {
			self = Median(selfTimes(tr.durations(lvl), tr.durations(prev)))
		}
		r.note("  %-24s %10.0f ns  self %10.0f ns", lvl, med(lvl), self)
		prev = lvl
	}
	r.put("core.ns_per_name", med("core.resolve"), "ns")
	r.put("nameserver.pipe_ns_per_name", med("nameserver.pipe.resolve"), "ns")
	r.put("nameserver.allocs_per_name", lad["nameserver.pipe.resolve"].allocs, "count")
	r.put("nameserver.bytes_per_name", lad["nameserver.pipe.resolve"].bytes, "B")
	r.put("nameserver.tcp_ns_per_name", med("nameserver.tcp.resolve"), "ns")
	r.put("cluster.ns_per_name", med("cluster.resolve"), "ns")
	r.put("cluster.self_ns_per_name", Median(selfTimes(tr.durations("cluster.resolve"), tr.durations("nameserver.tcp.resolve"))), "ns")
	r.put("cluster.allocs_per_name", lad["cluster.resolve"].allocs, "count")
	r.put("cluster.bytes_per_name", lad["cluster.resolve"].bytes, "B")
	r.put("cluster.batch_ns_per_name", med("cluster.batch")/ladderBatch, "ns")

	failed, err := e.writeLadder(rec)
	if err != nil {
		return err
	}
	r.tally(3*ladderPairs, failed)
	r.put("write.server_ns", med("write.server"), "ns")
	r.put("write.wire_ns", med("write.wire"), "ns")
	r.put("write.cluster_ns", med("write.cluster"), "ns")

	sr, err := e.snapLadder(rec)
	if err != nil {
		return err
	}
	commitMs := sr.commitMs
	if len(u.write.commitMs) > 0 {
		commitMs = Median(u.write.commitMs)
	}
	r.put("snapstore.commit_ms", commitMs, "ms")
	r.put("snapstore.snapshot_ms", sr.snapshotMs, "ms")
	r.put("snapstore.restore_ms", sr.restoreMs, "ms")
	r.put("snapstore.catchup_ms", sr.catchupMs, "ms")
	r.put("snapstore.catchup_copied", float64(sr.copied), "count")
	r.put("snapstore.catchup_pruned", float64(sr.pruned), "count")

	path, err := tr.write(traceDir, e.wl.name)
	if err != nil {
		return err
	}
	r.note("%d spans written to %s", tr.count(), path)
	return nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcSeconds returns the runtime's cumulative GC CPU seconds and total
// available CPU seconds.
func gcSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}
