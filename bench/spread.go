package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// printSpread reads benchmark output on r — any number of runs; only
// lines holding a JSON summary count — and prints, per metric, the run
// count, median, quartiles and interquartile spread as a share of the
// median: the figure two sets of runs are compared by.
func printSpread(r io.Reader, w io.Writer) error {
	vals := make(map[string][]float64)
	units := make(map[string]string)
	runs, failed := 0, 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res Result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return fmt.Errorf("parse result line: %w", err)
		}
		runs++
		if !res.Correct || res.Failed > 0 {
			failed++
		}
		for name, m := range res.Metrics {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read results: %w", err)
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d runs, %d with failures\n", runs, failed)
	fmt.Fprintf(w, "%-32s %4s %14s %14s %14s %8s %s\n", "metric", "n", "median", "q1", "q3", "spread", "unit")
	for _, n := range names {
		v := vals[n]
		q1, q3 := Quartiles(v)
		fmt.Fprintf(w, "%-32s %4d %14.4f %14.4f %14.4f %8.4f %s\n", n, len(v), Median(v), q1, q3, Spread(v), units[n])
	}
	return nil
}
