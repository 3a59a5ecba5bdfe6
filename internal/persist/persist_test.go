package persist

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"namecoherence/internal/check"
	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/treespec"
)

const spec = `
dir /usr/bin
file /usr/bin/ls "#!ls"
file /doc/main "title"
embed /doc/main "chapters/ch1"
file /doc/chapters/ch1 "one"
link /mnt /usr
`

func buildWorld(t *testing.T) (*core.World, *dirtree.Tree) {
	t.Helper()
	w := core.NewWorld()
	tr, err := treespec.Build(spec, w, "root")
	if err != nil {
		t.Fatal(err)
	}
	// Replicas and an activity for good measure.
	r1 := w.NewObject("cmd@1")
	r2 := w.NewObject("cmd@2")
	if _, err := w.NewReplicaGroup(r1, r2); err != nil {
		t.Fatal(err)
	}
	act := w.NewActivity("daemon")
	if err := tr.Attach(nil, "proc", act); err != nil {
		t.Fatal(err)
	}
	return w, tr
}

func roundTrip(t *testing.T, w *core.World) *core.World {
	t.Helper()
	var buf bytes.Buffer
	opaque, err := Save(w, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if opaque != 0 {
		t.Fatalf("opaque = %d", opaque)
	}
	w2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return w2
}

func TestRoundTripStructure(t *testing.T) {
	w, tr := buildWorld(t)
	w2 := roundTrip(t, w)

	if w2.EntityCount() != w.EntityCount() {
		t.Fatalf("entity count %d != %d", w2.EntityCount(), w.EntityCount())
	}
	// The tree root has the same ID; resolution works identically.
	root2 := core.Entity{ID: tr.Root.ID, Kind: core.KindObject}
	if !w2.Exists(root2) {
		t.Fatal("root missing after load")
	}
	ctx2, ok := w2.ContextOf(root2)
	if !ok {
		t.Fatal("root not a context object after load")
	}
	e1, err1 := w.Resolve(tr.RootContext(), core.ParsePath("usr/bin/ls"))
	e2, err2 := w2.Resolve(ctx2, core.ParsePath("usr/bin/ls"))
	if err1 != nil || err2 != nil || e1 != e2 {
		t.Fatalf("resolution differs: %v/%v vs %v/%v", e1, err1, e2, err2)
	}
	// Sharing preserved.
	m2, err := w2.Resolve(ctx2, core.ParsePath("mnt/bin/ls"))
	if err != nil || m2 != e2 {
		t.Fatalf("link lost: %v %v", m2, err)
	}
	// Labels preserved.
	if w2.Label(e2) != w.Label(e1) {
		t.Fatal("label lost")
	}
}

func TestRoundTripFileData(t *testing.T) {
	w, tr := buildWorld(t)
	w2 := roundTrip(t, w)
	main1, _ := tr.Lookup(core.ParsePath("doc/main"))
	data2, ok := w2.State(core.Entity{ID: main1.ID, Kind: core.KindObject}).(*dirtree.FileData)
	if !ok {
		t.Fatal("file data lost")
	}
	if data2.Content != "title" || len(data2.Embedded) != 1 ||
		data2.Embedded[0].String() != "chapters/ch1" {
		t.Fatalf("file data = %+v", data2)
	}
}

func TestRoundTripReplicaGroups(t *testing.T) {
	w, _ := buildWorld(t)
	// Find the replicas by label.
	var r1, r2 core.Entity
	for _, e := range w.Entities() {
		switch w.Label(e) {
		case "cmd@1":
			r1 = e
		case "cmd@2":
			r2 = e
		}
	}
	w2 := roundTrip(t, w)
	if !w2.SameReplica(r1, r2) {
		t.Fatal("replica group lost")
	}
}

func TestRoundTripActivities(t *testing.T) {
	w, _ := buildWorld(t)
	w2 := roundTrip(t, w)
	found := false
	for _, e := range w2.Entities() {
		if e.IsActivity() && w2.Label(e) == "daemon" {
			found = true
		}
	}
	if !found {
		t.Fatal("activity lost")
	}
}

func TestRoundTripCheckClean(t *testing.T) {
	w, _ := buildWorld(t)
	w2 := roundTrip(t, w)
	if rep := check.World(w2); !rep.OK() {
		t.Fatalf("loaded world not clean: %s", rep)
	}
}

// Save → Load → Save is a fixed point.
func TestDoubleRoundTripFixedPoint(t *testing.T) {
	w, _ := buildWorld(t)
	var buf1, buf2 bytes.Buffer
	if _, err := Save(w, &buf1); err != nil {
		t.Fatal(err)
	}
	w2, err := Load(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Save(w2, &buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("second snapshot differs from first")
	}
}

func TestOpaqueStatesCounted(t *testing.T) {
	w := core.NewWorld()
	o := w.NewObject("weird")
	if err := w.SetState(o, 42); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	opaque, err := Save(w, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if opaque != 1 {
		t.Fatalf("opaque = %d", opaque)
	}
	// Loads fine; the state is simply absent.
	w2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s := w2.State(core.Entity{ID: o.ID, Kind: core.KindObject}); s != nil {
		t.Fatalf("opaque state resurrected as %v", s)
	}
}

func TestLoadGarbage(t *testing.T) {
	_, err := Load(strings.NewReader("not a snapshot"))
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("err = %v", err)
	}
	// The decoder's own error is wrapped too (%w, not %v): the chain
	// forks below the sentinel instead of ending at it.
	u, ok := err.(interface{ Unwrap() []error })
	if !ok || len(u.Unwrap()) != 2 {
		t.Fatalf("want two wrapped errors (sentinel and cause) in %v", err)
	}
}

func TestWatchedContextSavedAsBindings(t *testing.T) {
	w := core.NewWorld()
	d, ctx := w.NewContextObject("dir")
	leaf := w.NewObject("leaf")
	ctx.Bind("leaf", leaf)
	// Wrap with instrumentation; Save must still see the bindings.
	if err := w.SetState(d, core.Watch(ctx, func(core.Name, core.Entity) {})); err != nil {
		t.Fatal(err)
	}
	w2 := roundTripWorld(t, w)
	ctx2, ok := w2.ContextOf(core.Entity{ID: d.ID, Kind: core.KindObject})
	if !ok {
		t.Fatal("watched context not persisted as context")
	}
	if got := ctx2.Lookup("leaf"); got.ID != leaf.ID {
		t.Fatalf("binding lost: %v", got)
	}
}

func roundTripWorld(t *testing.T, w *core.World) *core.World {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Save(w, &buf); err != nil {
		t.Fatal(err)
	}
	w2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return w2
}
