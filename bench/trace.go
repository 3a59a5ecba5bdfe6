package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Tracing lives entirely in the benchmark: a span brackets one call the
// benchmark makes into a layer's public API. Nothing inside the program is
// instrumented, so a layer's self time is recovered by subtraction: the
// ladder replays one request at every level under the same request ID,
// and a level's self time is its span minus the level below.

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	id, parent, req uint64
	name            string
	start, end      int64
}

// tracer hands out span IDs and owns one buffer per recording goroutine,
// so recording takes no lock.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	bufs   []*spanBuf
}

// spanBuf is one goroutine's spans.
type spanBuf struct {
	t     *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a new span buffer; call it before starting the goroutine
// that records into it.
func (t *tracer) buf(capacity int) *spanBuf {
	b := &spanBuf{t: t, spans: make([]span, 0, capacity)}
	t.bufs = append(t.bufs, b)
	return b
}

// A nil *spanBuf records nothing, so untraced runs share the traced code
// path at the cost of a nil check per call.

// now returns the current time on the tracer's clock.
func (b *spanBuf) now() int64 {
	if b == nil {
		return 0
	}
	return b.at(time.Now())
}

// at converts a wall-clock reading to the tracer's clock.
func (b *spanBuf) at(t time.Time) int64 {
	if b == nil {
		return 0
	}
	return int64(t.Sub(b.t.epoch))
}

// newID reserves a span ID, for a parent span recorded after its
// children.
func (b *spanBuf) newID() uint64 {
	if b == nil {
		return 0
	}
	return b.t.nextID.Add(1)
}

// add appends a finished span under a reserved ID.
func (b *spanBuf) add(id uint64, name string, parent, req uint64, start, end int64) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{id: id, parent: parent, req: req, name: name, start: start, end: end})
}

// record appends a finished span and returns its ID.
func (b *spanBuf) record(name string, parent, req uint64, start, end int64) uint64 {
	id := b.newID()
	b.add(id, name, parent, req, start, end)
	return id
}

// count returns the number of spans recorded so far.
func (t *tracer) count() int {
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// durations returns, for every span with the given name, its duration in
// nanoseconds keyed by request ID.
func (t *tracer) durations(name string) map[uint64]float64 {
	out := make(map[uint64]float64)
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if s.name == name {
				out[s.req] = float64(s.end - s.start)
			}
		}
	}
	return out
}

// selfTimes returns, per request present at both levels, the upper
// level's duration minus the lower one's: the upper layer's own cost.
func selfTimes(upper, lower map[uint64]float64) []float64 {
	out := make([]float64, 0, len(upper))
	for req, d := range upper {
		if l, ok := lower[req]; ok {
			out = append(out, d-l)
		}
	}
	return out
}

// values returns a map's values.
func values(m map[uint64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// write stores every span as gzip-compressed tab-separated lines
// (id, parent, request, name, start ns, end ns) and returns the path.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, workload+".spans.tsv.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create trace file: %w", err)
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, b := range t.bufs {
		for _, s := range b.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	if err := zw.Close(); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close trace: %w", err)
	}
	return path, nil
}
