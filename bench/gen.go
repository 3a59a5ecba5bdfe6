package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"namecoherence/internal/core"
)

// The generator turns a workload seed into everything the system under
// test receives: a treespec and per-caller name streams. It carries its
// own generator instead of math/rand, so the inputs for a seed do not
// depend on the standard library's generators (gen_test.go pins them
// byte for byte).

// rng is a 64-bit linear congruential generator whose output passes
// through the splitmix64 finalizer.
type rng struct{ state uint64 }

func newRNG(seed, stream uint64) *rng {
	r := &rng{state: seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for the
// sizes used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// unit returns a value in [0, 1) with 53 bits of precision.
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// Tree shape. Every name has depth minDepth..maxDepth; the depth of each
// new name is drawn uniformly, and its parent directory at the level above
// is drawn by preferential attachment (a directory is picked in proportion
// to 1 + its child count), so fan-out is heavily skewed: core resolve cost
// depends on both depth and directory size, and both vary.
const (
	topDirs    = 16
	minDepth   = 2
	maxDepth   = 6
	dirPercent = 20
	hotNames   = 8
)

// Spec is one generated input: the tree the cluster serves, the cold names
// readers resolve, and the hot names churn rebinds between two targets.
type Spec struct {
	Tree    string
	Names   []core.Path
	Hot     []core.Path
	HotDir  core.Path
	Targets [2]core.Path
}

// Generate builds a tree of exactly n cold names (plus the hot directory
// and its two targets, present in every workload's tree so the write
// ladder can run anywhere).
func Generate(seed uint64, n int) *Spec {
	r := newRNG(seed, 0)
	var b strings.Builder
	type dir struct {
		path     string
		children int
	}
	var dirs []dir
	levels := make([][]int, maxDepth+1)  // dir indices per depth
	tickets := make([][]int, maxDepth+1) // preferential-attachment urn per depth
	for i := 0; i < topDirs; i++ {
		p := fmt.Sprintf("/t%02d", i)
		fmt.Fprintf(&b, "dir %s\n", p)
		levels[1] = append(levels[1], len(dirs))
		dirs = append(dirs, dir{path: p})
	}
	s := &Spec{Names: make([]core.Path, 0, n)}
	for len(s.Names) < n {
		d := minDepth + r.intn(maxDepth-minDepth+1)
		for len(levels[d-1]) == 0 {
			d--
		}
		var parent int
		if d == minDepth {
			// Top-level directories are picked uniformly so the two shards
			// stay close in size.
			parent = levels[1][r.intn(len(levels[1]))]
		} else {
			urn := tickets[d-1]
			if len(urn) == 0 {
				urn = levels[d-1]
			}
			parent = urn[r.intn(len(urn))]
		}
		pd := &dirs[parent]
		isDir := d < maxDepth && r.intn(100) < dirPercent
		kind := "f"
		if isDir {
			kind = "d"
		}
		p := pd.path + "/" + kind + strconv.Itoa(pd.children)
		pd.children++
		if isDir {
			fmt.Fprintf(&b, "dir %s\n", p)
			levels[d] = append(levels[d], len(dirs))
			tickets[d] = append(tickets[d], len(dirs))
			dirs = append(dirs, dir{path: p})
		} else {
			fmt.Fprintf(&b, "file %s %q\n", p, "x")
		}
		tickets[d-1] = append(tickets[d-1], parent)
		s.Names = append(s.Names, core.ParsePath(p))
	}
	s.HotDir = core.ParsePath("/hot")
	s.Targets = [2]core.Path{core.ParsePath("/tg/a"), core.ParsePath("/tg/b")}
	b.WriteString("dir /hot\nfile /tg/a \"a\"\nfile /tg/b \"b\"\n")
	for i := 0; i < hotNames; i++ {
		fmt.Fprintf(&b, "link /hot/h%d /tg/a\n", i)
		s.Hot = append(s.Hot, core.ParsePath(fmt.Sprintf("/hot/h%d", i)))
	}
	s.Tree = b.String()
	return s
}

// Depths returns how many cold names sit at each depth (index = depth).
func (s *Spec) Depths() []int {
	out := make([]int, maxDepth+1)
	for _, p := range s.Names {
		out[len(p)]++
	}
	return out
}

// Stream kinds. A stream yields indices into Spec.Names; churn's reader
// stream also yields len(Names)+h for hot name h.
const (
	uniformStream = iota
	zipfStream
	churnStream
)

// zipfS is the batch-zipf skew: with a 4096-entry LRU over 64k names it
// gives a cache hit ratio of roughly 0.8.
const zipfS = 1.1

// hotShare is the fraction (1/hotShare) of churn reads that pick a hot name.
const hotShare = 16

// stream is one caller's deterministic name sequence.
type stream struct {
	r    *rng
	kind int
	n    int
	cdf  []float64 // zipf: cumulative weight by rank
	perm []int32   // zipf: rank -> name index
}

// newStream returns caller's stream for the spec's n cold names. Zipf
// ranks are mapped to names through a seeded permutation, so popular names
// are scattered over the tree and over both shards.
func newStream(kind int, seed uint64, caller, n int) *stream {
	st := &stream{r: newRNG(seed, uint64(caller)+1), kind: kind, n: n}
	if kind == zipfStream {
		st.cdf = zipfCDF(n, zipfS)
		pr := newRNG(seed, 1<<32)
		st.perm = make([]int32, n)
		for i := range st.perm {
			st.perm[i] = int32(i)
		}
		for i := n - 1; i > 0; i-- {
			j := pr.intn(i + 1)
			st.perm[i], st.perm[j] = st.perm[j], st.perm[i]
		}
	}
	return st
}

func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return cdf
}

// Next returns the next name index.
func (st *stream) Next() int {
	switch st.kind {
	case zipfStream:
		u := st.r.unit()
		rank := sort.SearchFloat64s(st.cdf, u)
		if rank >= st.n {
			rank = st.n - 1
		}
		return int(st.perm[rank])
	case churnStream:
		if st.r.intn(hotShare) == 0 {
			return st.n + st.r.intn(hotNames)
		}
	}
	return st.r.intn(st.n)
}
