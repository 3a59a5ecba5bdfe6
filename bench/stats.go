package main

import (
	"fmt"
	"sort"
)

// Dist summarises one set of latency samples: the median, p99, and the
// highest standard percentile that still has at least tailMin samples
// beyond it (the tail a run can actually resolve).
type Dist struct {
	N      int
	P50    float64
	P99    float64
	TopPct float64 // e.g. 99.9
	Top    float64
}

// tailMin is how many samples must lie beyond a percentile for it to be
// reported as the run's top percentile.
const tailMin = 10

// standardPcts are the percentiles considered for Dist.TopPct, ascending.
var standardPcts = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// rank returns the nearest-rank index of percentile pct in n sorted
// samples: the smallest index i with (i+1)/n >= pct/100.
func rank(n int, pct float64) int {
	// Work in parts per million so 99.9 and friends are exact integers.
	ppm := int64(pct*10000 + 0.5)
	i := int((ppm*int64(n)+999999)/1000000) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Percentile returns the nearest-rank percentile of sorted samples.
func Percentile(sorted []float64, pct float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), pct)]
}

// Median returns the median of values (the mean of the middle two for an
// even count); values is not modified.
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// TopPercentile returns the highest standard percentile with at least
// tailMin of n samples strictly beyond its rank, and false when even the
// median has fewer.
func TopPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range standardPcts {
		if n-1-rank(n, p) >= tailMin {
			best, ok = p, true
		}
	}
	return best, ok
}

// Summarise sorts samples in place and returns their Dist.
func Summarise(samples []float64) Dist {
	sort.Float64s(samples)
	d := Dist{N: len(samples)}
	if d.N == 0 {
		return d
	}
	d.P50 = Percentile(samples, 50)
	d.P99 = Percentile(samples, 99)
	if p, ok := TopPercentile(d.N); ok {
		d.TopPct, d.Top = p, Percentile(samples, p)
	}
	return d
}

// String renders the summary with its sample count.
func (d Dist) String() string {
	if d.TopPct == 0 {
		return fmt.Sprintf("p50 %.2f p99 %.2f (n=%d; too few samples for a tail percentile)", d.P50, d.P99, d.N)
	}
	if d.TopPct <= 99 {
		return fmt.Sprintf("p50 %.2f p99 %.2f, top p%g %.2f (n=%d)", d.P50, d.P99, d.TopPct, d.Top, d.N)
	}
	return fmt.Sprintf("p50 %.2f p99 %.2f p%g %.2f (n=%d)", d.P50, d.P99, d.TopPct, d.Top, d.N)
}

// Quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), which is how run-to-run spread is judged.
func Quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// Spread is the interquartile distance of values as a share of their
// median.
func Spread(values []float64) float64 {
	med := Median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(values)
	return (q3 - q1) / med
}
