package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"namecoherence/internal/core"
	"namecoherence/internal/treespec"
)

// inputBytes serialises everything a workload's system receives for a
// seed: the spec and the first k names of each caller's stream.
func inputBytes(wl workload, seed uint64, k int) []byte {
	spec := Generate(seed, wl.names)
	b := []byte(spec.Tree)
	for c := 0; c < wl.callers(); c++ {
		st := newStream(wl.stream, seed, c, len(spec.Names))
		for i := 0; i < k; i++ {
			b = binary.AppendUvarint(b, uint64(st.Next()))
		}
	}
	return b
}

// The same seed must give byte-identical inputs, a different seed
// different ones, and the bytes for seed 1 are pinned: a change here
// changes every workload's inputs, so it must be deliberate and re-baseline
// the benchmark.
func TestInputsAreDeterministic(t *testing.T) {
	golden := map[string]string{
		"resolve-scatter": "f405be588425f4fdb6eeff5b6868fbf5aecf1eb90a4377cdcbae621f93145597",
		"batch-zipf":      "913c7692b30e1df165cf227dbe16a61e86ba454564326feebe1db2fb2d8981e0",
		"churn-push":      "70f33135f0d14966750ca3c8fba5b2ebd15a40f80ba97e2972bc958f4ecd3b95",
	}
	for _, wl := range workloads {
		a, b := inputBytes(wl, 1, 4096), inputBytes(wl, 1, 4096)
		if string(a) != string(b) {
			t.Errorf("%s: seed 1 gave different inputs on two calls", wl.name)
		}
		if string(a) == string(inputBytes(wl, 2, 4096)) {
			t.Errorf("%s: seeds 1 and 2 gave identical inputs", wl.name)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(a)); got != golden[wl.name] {
			t.Errorf("%s: seed 1 inputs hash to %s, pinned %s", wl.name, got, golden[wl.name])
		}
	}
}

// The tree has exactly the requested names, every depth from minDepth to
// maxDepth is well populated, fan-out is skewed, and every name resolves
// once the spec is built.
func TestGenerateShape(t *testing.T) {
	const n = 20000
	spec := Generate(3, n)
	if len(spec.Names) != n {
		t.Fatalf("%d names, want %d", len(spec.Names), n)
	}
	depths := spec.Depths()
	for d := range depths {
		inRange := d >= minDepth && d <= maxDepth
		if inRange && depths[d] < n/10 {
			t.Errorf("depth %d has %d names, want at least %d", d, depths[d], n/10)
		}
		if !inRange && depths[d] != 0 {
			t.Errorf("depth %d has %d names, want none", d, depths[d])
		}
	}
	children := make(map[string]int)
	seen := make(map[string]bool)
	for _, p := range spec.Names {
		if seen[p.String()] {
			t.Fatalf("name %s generated twice", p)
		}
		seen[p.String()] = true
		children[p[:len(p)-1].String()]++
	}
	maxFan, ones := 0, 0
	for _, c := range children {
		maxFan = max(maxFan, c)
		if c == 1 {
			ones++
		}
	}
	if maxFan < 100 || ones == 0 {
		t.Errorf("fan-out not skewed: max %d, %d directories with one child", maxFan, ones)
	}

	w := core.NewWorld()
	tr, err := treespec.Build(spec.Tree, w, "gen")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(append([]core.Path(nil), spec.Names...), spec.Hot...) {
		if _, err := tr.Lookup(p); err != nil {
			t.Fatalf("resolve %s: %v", p, err)
		}
	}
	a, _ := tr.Lookup(spec.Targets[0])
	if h, _ := tr.Lookup(spec.Hot[0]); h != a {
		t.Errorf("hot name starts bound to %v, want target 0 %v", h, a)
	}
}

// Streams stay inside their name range; churn's stream picks hot names
// at about 1/hotShare, and zipf concentrates on few names.
func TestStreams(t *testing.T) {
	const n, draws = 1000, 100000
	hot := 0
	st := newStream(churnStream, 5, 0, n)
	for i := 0; i < draws; i++ {
		v := st.Next()
		if v < 0 || v >= n+hotNames {
			t.Fatalf("churn index %d out of range", v)
		}
		if v >= n {
			hot++
		}
	}
	if share := float64(hot) / draws; share < 0.8/hotShare || share > 1.2/hotShare {
		t.Errorf("hot share %.4f, want about %.4f", share, 1.0/hotShare)
	}
	counts := make(map[int]int)
	st = newStream(zipfStream, 5, 0, n)
	for i := 0; i < draws; i++ {
		v := st.Next()
		if v < 0 || v >= n {
			t.Fatalf("zipf index %d out of range", v)
		}
		counts[v]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if top < draws/20 {
		t.Errorf("most popular zipf name drawn %d times in %d, want a heavy head", top, draws)
	}
}
