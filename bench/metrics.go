package main

import "fmt"

// metricDef declares one metric of the summary line. A run with tracing
// off reports exactly the end-to-end metrics, a traced run exactly the
// per-layer ones; BENCHMARK.json lists the same names and units
// (stats_test.go checks that they agree). Metrics that are printed but
// kept out of the summary — read_p99_us, the churn write and coherence
// percentiles, failed_ratio — are explained in DESIGN.md.
type metricDef struct {
	name, unit string
	perLayer   bool
}

var metricDefs = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "names_per_s", unit: "1/s"},
	{name: "read_p50_us", unit: "us"},
	{name: "cpu_us_per_op", unit: "us"},
	{name: "live_heap_mb", unit: "MB"},

	{name: "core.ns_per_name", unit: "ns", perLayer: true},
	{name: "nameserver.pipe_ns_per_name", unit: "ns", perLayer: true},
	{name: "nameserver.allocs_per_name", unit: "count", perLayer: true},
	{name: "nameserver.bytes_per_name", unit: "B", perLayer: true},
	{name: "nameserver.tcp_ns_per_name", unit: "ns", perLayer: true},
	{name: "cluster.ns_per_name", unit: "ns", perLayer: true},
	{name: "cluster.self_ns_per_name", unit: "ns", perLayer: true},
	{name: "cluster.allocs_per_name", unit: "count", perLayer: true},
	{name: "cluster.bytes_per_name", unit: "B", perLayer: true},
	{name: "nameserver.frames_per_name", unit: "ratio", perLayer: true},
	{name: "cluster.batch_ns_per_name", unit: "ns", perLayer: true},
	{name: "lru.hit_ratio", unit: "ratio", perLayer: true},
	{name: "cluster.purges_per_write", unit: "ratio", perLayer: true},
	{name: "cluster.coalesced", unit: "count", perLayer: true},
	{name: "cluster.failovers", unit: "count", perLayer: true},
	{name: "write.server_ns", unit: "ns", perLayer: true},
	{name: "write.wire_ns", unit: "ns", perLayer: true},
	{name: "write.cluster_ns", unit: "ns", perLayer: true},
	{name: "push.invalidations_per_write", unit: "ratio", perLayer: true},
	{name: "replication.pending_max", unit: "count", perLayer: true},
	{name: "replication.drain_ms", unit: "ms", perLayer: true},
	{name: "snapstore.commit_ms", unit: "ms", perLayer: true},
	{name: "snapstore.snapshot_ms", unit: "ms", perLayer: true},
	{name: "snapstore.restore_ms", unit: "ms", perLayer: true},
	{name: "snapstore.catchup_ms", unit: "ms", perLayer: true},
	{name: "snapstore.catchup_copied", unit: "count", perLayer: true},
	{name: "snapstore.catchup_pruned", unit: "count", perLayer: true},
	{name: "treespec.build_ms", unit: "ms", perLayer: true},
	{name: "cluster.bringup_ms", unit: "ms", perLayer: true},
	{name: "gc.cpu_fraction", unit: "ratio", perLayer: true},
	{name: "bench.generator_late_p99_us", unit: "us", perLayer: true},
	{name: "bench.tracing_overhead", unit: "ratio", perLayer: true},
}

// checkMetrics reports an error unless got holds exactly the metrics a
// run in this mode must report, each with its declared unit.
func checkMetrics(got map[string]Metric, traced bool) error {
	want := 0
	for _, d := range metricDefs {
		if d.perLayer != traced {
			continue
		}
		want++
		m, ok := got[d.name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %q, declared %q", d.name, m.Unit, d.unit)
		}
	}
	if len(got) != want {
		return fmt.Errorf("%d metrics reported, %d declared", len(got), want)
	}
	return nil
}
