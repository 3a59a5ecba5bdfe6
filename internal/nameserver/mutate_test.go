package nameserver

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"namecoherence/internal/core"
)

// TestSetRevisionMonotonic is the regression for the recovery-time
// revision rewind: SetRevision used to assign unconditionally, so a
// recovery racing live bumps could move the revision backwards past what
// surviving clients had already observed.
func TestSetRevisionMonotonic(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	for i := 0; i < 5; i++ {
		s.Bump()
	}
	s.SetRevision(3) // a stale snapshot's revision arriving late
	if got := s.Revision(); got != 5 {
		t.Fatalf("Revision = %d after SetRevision(3) over 5, want 5 (monotonic)", got)
	}
	s.SetRevision(9)
	if got := s.Revision(); got != 9 {
		t.Fatalf("Revision = %d after SetRevision(9), want 9", got)
	}

	// Interleave recovery-style SetRevision with concurrent Bumps: the
	// final revision must be at least the bump count plus the recovery
	// floor, and must never have rewound below a value already returned.
	var wg sync.WaitGroup
	const bumps = 100
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < bumps; i++ {
			s.Bump()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < bumps; i++ {
			s.SetRevision(9) // the recovered revision, re-asserted
		}
	}()
	wg.Wait()
	if got := s.Revision(); got != 9+bumps {
		t.Fatalf("Revision = %d after %d bumps over 9, want %d (a SetRevision swallowed bumps)",
			got, bumps, 9+bumps)
	}
}

// TestWireMutations drives bind/unbind/mkcontext over the wire and checks
// both the happy paths and the refusals.
func TestWireMutations(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	s.WatchExport(tr.Root)
	c := pipeClient(t, s)

	// Bind the existing file under a second name.
	rev, err := c.Bind(core.ParsePath("usr/bin"), "ls2", f)
	if err != nil {
		t.Fatal(err)
	}
	if rev == 0 {
		t.Fatal("bind committed at revision 0: mutation did not reach a Bump")
	}
	if got, err := c.Resolve(core.ParsePath("usr/bin/ls2")); err != nil || got != f {
		t.Fatalf("resolve after bind = %v, %v", got, err)
	}

	// Mkcontext, then bind inside the fresh directory.
	dir, mkRev, err := c.Mkcontext(core.ParsePath("usr"), "local")
	if err != nil {
		t.Fatal(err)
	}
	if dir.IsUndefined() || mkRev <= rev {
		t.Fatalf("mkcontext = %v at rev %d (previous %d)", dir, mkRev, rev)
	}
	if _, err := c.Bind(core.ParsePath("usr/local"), "ls3", f); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Resolve(core.ParsePath("usr/local/ls3")); err != nil || got != f {
		t.Fatalf("resolve in fresh context = %v, %v", got, err)
	}

	// Unbind and confirm the name is gone.
	if _, err := c.Unbind(core.ParsePath("usr/bin"), "ls2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(core.ParsePath("usr/bin/ls2")); err == nil {
		t.Fatal("resolve after unbind succeeded")
	}

	// Refusals: each must be a RemoteError and change nothing.
	var re *RemoteError
	if _, err := c.Bind(core.ParsePath("usr/bin"), "ls", f); !errors.As(err, &re) {
		t.Fatalf("bind over existing name: err = %v, want RemoteError", err)
	}
	if _, err := c.Unbind(core.ParsePath("usr/bin"), "nope"); !errors.As(err, &re) {
		t.Fatalf("unbind missing name: err = %v, want RemoteError", err)
	}
	if _, _, err := c.Mkcontext(core.ParsePath("usr"), "bin"); !errors.As(err, &re) {
		t.Fatalf("mkcontext over existing name: err = %v, want RemoteError", err)
	}
	if _, err := c.Bind(core.ParsePath("usr/bin"), "ghost", core.Entity{ID: 99999, Kind: core.KindObject}); !errors.As(err, &re) {
		t.Fatalf("bind unknown target: err = %v, want RemoteError", err)
	}
	if _, err := c.Bind(core.ParsePath("usr/bin"), "a/b", f); !errors.Is(err, ErrNotCanonical) {
		t.Fatalf("bind non-canonical name: err = %v, want ErrNotCanonical", err)
	}
}

// TestReadOnlyServer checks that WithReadOnly refuses mutations cleanly
// while resolution keeps working.
func TestReadOnlyServer(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext(), WithReadOnly())
	s.WatchExport(tr.Root)
	c := pipeClient(t, s)

	var re *RemoteError
	if _, err := c.Bind(core.ParsePath("usr/bin"), "ls2", f); !errors.As(err, &re) ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("bind on read-only server: err = %v", err)
	}
	if got, err := c.Resolve(core.ParsePath("usr/bin/ls")); err != nil || got != f {
		t.Fatalf("resolve on read-only server = %v, %v", got, err)
	}
}

// TestMkcontextAutoWatch is the regression for the WatchExport hole:
// directories created after watch time were unwatched, so a bind inside a
// freshly made context mutated the graph without a revision bump and
// coherent caches went silently stale.
func TestMkcontextAutoWatch(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	s.WatchExport(tr.Root)
	c := pipeClient(t, s, WithCoherentCache(16))

	dir, _, err := c.Mkcontext(core.ParsePath("usr"), "fresh")
	if err != nil {
		t.Fatal(err)
	}
	ctx, ok := w.ContextOf(dir)
	if !ok {
		t.Fatal("created entity is not a context")
	}
	if _, watched := ctx.(*core.WatchedContext); !watched {
		t.Fatal("freshly made context is not watched: later binds will not bump the revision")
	}

	// Mutate the fresh directory directly through the world — the path a
	// server-local writer takes, where only the watch can bump.
	before := s.Revision()
	ctx.Bind("tool", f)
	if got := s.Revision(); got <= before {
		t.Fatalf("Revision = %d after bind in fresh context, want > %d", got, before)
	}

	// The coherent cache must see the change after one round-trip: prime
	// it, mutate again, and check the next round-trip purges.
	p := core.ParsePath("usr/fresh/tool")
	if got, err := c.Resolve(p); err != nil || got != f {
		t.Fatalf("resolve fresh binding = %v, %v", got, err)
	}
	purges := c.Purges()
	ctx.Unbind("tool")
	if _, err := c.Resolve(core.ParsePath("usr/bin/ls")); err != nil {
		t.Fatal(err)
	}
	if c.Purges() <= purges {
		t.Fatalf("Purges = %d after unbind in fresh context, want > %d (no bump reached the cache)",
			c.Purges(), purges)
	}
	if _, err := c.Resolve(p); err == nil {
		t.Fatal("stale cache served an unbound name")
	}
}

// TestPushInvalidation subscribes a coherent-cache client and checks that
// a write pushes the purge to it without the client issuing any request.
func TestPushInvalidation(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	s.WatchExport(tr.Root)
	reader := pipeClient(t, s, WithCoherentCache(16))
	writer := pipeClient(t, s)

	if err := reader.Subscribe(nil); err != nil {
		t.Fatal(err)
	}
	if err := reader.Subscribe(nil); err == nil {
		t.Fatal("second Subscribe did not error")
	}

	// Prime the reader's cache.
	p := core.ParsePath("usr/bin/ls")
	if got, err := reader.Resolve(p); err != nil || got != f {
		t.Fatalf("prime = %v, %v", got, err)
	}
	if hits, _ := reader.Stats(); hits != 0 {
		t.Fatalf("hits = %d before any repeat", hits)
	}

	// A write through another connection must reach the reader as a push.
	if _, err := writer.Unbind(core.ParsePath("usr/bin"), "ls"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reader.Invalidations() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no invalidation frame arrived")
		}
		time.Sleep(time.Millisecond)
	}
	if reader.Purges() == 0 {
		t.Fatal("push frame did not purge the coherent cache")
	}
	// The very next resolve misses (the entry was pushed out) and sees
	// the unbound state — no stale read, no intermediate round-trip.
	if _, err := reader.Resolve(p); err == nil {
		t.Fatal("resolve after pushed unbind still served the old binding")
	}
}

// TestPushInvalidationCallback checks the onInval hook and that writes on
// the subscriber's own connection also invalidate it.
func TestPushInvalidationCallback(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	s.WatchExport(tr.Root)
	c := pipeClient(t, s, WithCoherentCache(16))

	got := make(chan uint64, 16)
	if err := c.Subscribe(func(rev uint64) { got <- rev }); err != nil {
		t.Fatal(err)
	}
	rev, err := c.Bind(core.ParsePath("usr/bin"), "ls2", f)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case pushed := <-got:
		if pushed < rev {
			t.Fatalf("pushed revision %d < commit revision %d", pushed, rev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("onInval callback never ran")
	}
}

// exerciseClient runs one resolve and one mutation round-trip — the two
// request shapes with distinct wire paths — and verifies both landed.
func exerciseClient(t *testing.T, c *Client, f core.Entity) {
	t.Helper()
	got, err := c.Resolve(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if got != f {
		t.Fatalf("resolve = %v, want %v", got, f)
	}
	rev, err := c.Bind(core.ParsePath("usr/bin"), "twin", f)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	if rev == 0 {
		t.Fatal("bind returned revision 0")
	}
	if got, err := c.Resolve(core.ParsePath("usr/bin/twin")); err != nil || got != f {
		t.Fatalf("resolve of bound name = %v, %v; want %v", got, err, f)
	}
	if _, err := c.Unbind(core.ParsePath("usr/bin"), "twin"); err != nil {
		t.Fatalf("unbind: %v", err)
	}
}

// TestInteropBinaryBothEnds: a client and a server meet over the real
// hello and carry reads and mutations.
func TestInteropBinaryBothEnds(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s)
	exerciseClient(t, c, f)
}

// TestInteropInvalidationPush verifies the push path (server-initiated
// ID-0 frames) over the real hello: a subscribed client must see the
// invalidation a mutation triggers.
func TestInteropInvalidationPush(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s, WithCoherentCache(8))

	seen := make(chan uint64, 4)
	if err := c.Subscribe(func(rev uint64) { seen <- rev }); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if _, err := c.Bind(core.ParsePath("usr/bin"), "pushed", f); err != nil {
		t.Fatalf("bind: %v", err)
	}
	select {
	case <-seen:
	case <-time.After(2 * time.Second):
		t.Fatal("no invalidation push arrived")
	}
}
