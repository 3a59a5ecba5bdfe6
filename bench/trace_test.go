package main

import (
	"sort"
	"testing"
)

// Self time is the upper level's span minus the lower level's for the
// same request ID; requests missing a level are skipped.
func TestSelfTimesBySubtraction(t *testing.T) {
	tr := newTracer()
	b := tr.buf(8)
	parent := b.newID()
	b.record("tcp", parent, 1, 0, 10)
	b.record("cluster", parent, 1, 20, 35)
	b.record("tcp", parent, 2, 40, 60)
	b.record("cluster", parent, 2, 60, 90)
	b.record("cluster", parent, 3, 90, 99)
	b.add(parent, "phase", 0, 0, 0, 99)
	got := selfTimes(tr.durations("cluster"), tr.durations("tcp"))
	sort.Float64s(got)
	if len(got) != 2 || got[0] != 5 || got[1] != 10 {
		t.Errorf("self times %v, want [5 10]", got)
	}
	if tr.count() != 6 {
		t.Errorf("%d spans, want 6", tr.count())
	}
	for _, s := range b.spans {
		if s.name != "phase" && s.parent != parent {
			t.Errorf("span %s has parent %d, want %d", s.name, s.parent, parent)
		}
	}
}

// A nil buffer is the untraced path: it records nothing and never fails.
func TestNilSpanBufRecordsNothing(t *testing.T) {
	var b *spanBuf
	if id := b.record("x", 0, 0, 1, 2); id != 0 || b.now() != 0 {
		t.Errorf("nil buffer returned id %d", id)
	}
	b.add(1, "x", 0, 0, 1, 2)
}
