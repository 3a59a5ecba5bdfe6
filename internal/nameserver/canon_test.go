package nameserver

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"

	"namecoherence/internal/core"
)

func TestCanonicalWirePath(t *testing.T) {
	if _, err := CanonicalWirePath(nil, core.ParsePath("usr/bin/ls")); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	// The append form fills the caller's buffer in place.
	buf := make([]string, 0, 4)
	raw, err := CanonicalWirePath(buf, core.ParsePath("usr/bin/ls"))
	if err != nil || strings.Join(raw, "|") != "usr|bin|ls" || &raw[0] != &buf[:1][0] {
		t.Fatalf("CanonicalWirePath(buf, usr/bin/ls) = %q, %v; want usr|bin|ls in buf", raw, err)
	}
	bad := []core.Path{
		{},                // empty: names the peer's export root, whatever that is
		{"usr", ""},       // empty component
		{"usr", "bin/ls"}, // separator smuggled inside a component
		{"usr/bin", "ls"}, // ditto, first component
	}
	for _, p := range bad {
		if _, err := CanonicalWirePath(nil, p); !errors.Is(err, ErrNotCanonical) {
			t.Fatalf("CanonicalWirePath(%q) err = %v, want ErrNotCanonical", p, err)
		}
	}
}

// TestClientRejectsNonCanonical pins the client-side half of §6: a
// non-canonical name fails before anything crosses the wire.
func TestClientRejectsNonCanonical(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s)

	for _, p := range []core.Path{{}, {"usr", "bin/ls"}, {"usr", ""}} {
		if _, err := c.Resolve(p); !errors.Is(err, ErrNotCanonical) {
			t.Fatalf("Resolve(%q) err = %v, want ErrNotCanonical", p, err)
		}
		if _, _, err := c.ResolveRev(p); !errors.Is(err, ErrNotCanonical) {
			t.Fatalf("ResolveRev(%q) err = %v, want ErrNotCanonical", p, err)
		}
		if _, _, err := c.ResolveBatchRev([]core.Path{p}); !errors.Is(err, ErrNotCanonical) {
			t.Fatalf("ResolveBatchRev(%q) err = %v, want ErrNotCanonical", p, err)
		}
	}
	if n := s.Served(); n != 0 {
		t.Fatalf("Served = %d after local rejections, want 0", n)
	}
}

// TestBatchNonCanonicalSlots pins per-slot failure: bad names fail in
// their result slots, good names still resolve, and only the good ones
// cross the wire.
func TestBatchNonCanonicalSlots(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s)

	paths := []core.Path{
		core.ParsePath("usr/bin/ls"),
		{"usr", "bin/ls"},
		{},
	}
	out, err := c.ResolveBatch(paths)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil || out[0].Entity != f {
		t.Fatalf("good slot = (%v, %v), want (%v, nil)", out[0].Entity, out[0].Err, f)
	}
	for _, i := range []int{1, 2} {
		if !errors.Is(out[i].Err, ErrNotCanonical) {
			t.Fatalf("slot %d err = %v, want ErrNotCanonical", i, out[i].Err)
		}
	}
	if n := s.Served(); n != 1 {
		t.Fatalf("Served = %d, want 1 (only the canonical name crosses)", n)
	}
}

// TestServerRevalidatesWirePaths bypasses the client and hand-writes frames:
// the server must reject non-canonical paths itself (§6 — coherence is
// checked where the name is used, not only where it was made).
func TestServerRevalidatesWirePaths(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	serverEnd, clientEnd := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.ServeConn(serverEnd)
	}()
	t.Cleanup(func() {
		_ = clientEnd.Close()
		wg.Wait()
	})

	peer, err := dialPeer(clientEnd)
	if err != nil {
		t.Fatal(err)
	}

	for _, raw := range [][]string{{"usr", "bin/ls"}, {"usr", ""}, nil} {
		if err := peer.writeRequest(request{Path: raw}); err != nil {
			t.Fatal(err)
		}
		resp, err := peer.readResponse()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp.Err, "not wire-canonical") {
			t.Fatalf("handcrafted request %q: Err = %q, want wire-canonical rejection", raw, resp.Err)
		}
	}

	// A batch gets per-result rejections; the good element still resolves.
	if err := peer.writeRequest(request{Paths: [][]string{{"usr", "bin", "ls"}, {"usr", "bin/ls"}}}); err != nil {
		t.Fatal(err)
	}
	resp, err := peer.readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("Results = %d, want 2", len(resp.Results))
	}
	if resp.Results[0].Err != "" {
		t.Fatalf("canonical batch element failed: %q", resp.Results[0].Err)
	}
	if !strings.Contains(resp.Results[1].Err, "not wire-canonical") {
		t.Fatalf("non-canonical batch element: Err = %q, want wire-canonical rejection", resp.Results[1].Err)
	}
}
