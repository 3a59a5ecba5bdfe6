package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7, 7, 1, 9, 7}, 7},
	} {
		in := append([]float64(nil), tc.in...)
		if got := Median(in); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.in[i] {
				t.Fatalf("Median reordered its input: %v", in)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for pct, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 99.9: 100, 1: 1} {
		if got := Percentile(s, pct); got != want {
			t.Errorf("p%g of 1..100 = %v, want %v", pct, got, want)
		}
	}
}

// The top percentile is the highest standard one with at least ten
// samples strictly beyond its rank.
func TestTopPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 9, ok: false},
		{n: 20, want: 50, ok: true},  // rank 9: 10 beyond
		{n: 99, want: 50, ok: true},  // p90 rank 89: 9 beyond
		{n: 100, want: 90, ok: true}, // p90 rank 89: 10 beyond
		{n: 999, want: 90, ok: true}, // p99 rank 989: 9 beyond
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
		{n: 215737, want: 99.99, ok: true},
	} {
		got, ok := TopPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("TopPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok {
			if beyond := tc.n - 1 - rank(tc.n, got); beyond < tailMin {
				t.Errorf("n=%d: p%g has only %d samples beyond it", tc.n, got, beyond)
			}
		}
	}
}

func TestSummariseCountsSamples(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[len(s)-1-i] = float64(i) // descending: Summarise must sort
	}
	d := Summarise(s)
	if d.N != 1000 || d.P50 != 499 || d.P99 != 989 || d.TopPct != 99 || d.Top != 989 {
		t.Errorf("Summarise = %+v", d)
	}
	if d := Summarise(nil); d.N != 0 {
		t.Errorf("Summarise(nil).N = %d", d.N)
	}
}

// Quartiles must agree with Python's statistics.quantiles(values, n=4),
// which the run-to-run spread is judged by. The expectations were taken
// from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3.5, 1.25, 9, 2, 7}, 1.625, 8.0},
		{[]float64{5, 1}, 0, 6},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := Quartiles(tc.in)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("Spread(1..10) = %v, want 1", got)
	}
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// Every declared metric has a valid, unique name, and BENCHMARK.json
// declares the same metrics with the same units and kinds and the same
// workloads.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range metricDefs {
		if !metricNameRE.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]{1,64}", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i := range bj.Workloads {
		if _, ok := workloadByName(bj.Workloads[i].Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", bj.Workloads[i].Name)
		}
	}
	var declared []metric
	for _, d := range metricDefs {
		declared = append(declared, metric{d.name, d.unit})
	}
	listed := append(append([]metric(nil), bj.EndToEnd...), bj.PerLayer...)
	if len(listed) != len(declared) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark declares %d", len(listed), len(declared))
	}
	for i := range declared {
		if listed[i] != declared[i] {
			t.Errorf("metric %d: BENCHMARK.json has %+v, benchmark declares %+v", i, listed[i], declared[i])
		}
		if perLayer := i >= len(bj.EndToEnd); perLayer != metricDefs[i].perLayer {
			t.Errorf("metric %s: BENCHMARK.json section disagrees", metricDefs[i].name)
		}
	}
}

func TestCheckMetrics(t *testing.T) {
	got := make(map[string]Metric)
	for _, d := range metricDefs {
		if !d.perLayer {
			got[d.name] = Metric{Value: 1, Unit: d.unit}
		}
	}
	if err := checkMetrics(got, false); err != nil {
		t.Errorf("complete end-to-end set rejected: %v", err)
	}
	if err := checkMetrics(got, true); err == nil {
		t.Error("end-to-end set accepted as per-layer")
	}
	got["extra"] = Metric{Value: 1, Unit: "s"}
	if err := checkMetrics(got, false); err == nil {
		t.Error("undeclared metric accepted")
	}
	delete(got, "extra")
	got["setup_s"] = Metric{Value: 1, Unit: "ms"}
	if err := checkMetrics(got, false); err == nil {
		t.Error("wrong unit accepted")
	}
}
