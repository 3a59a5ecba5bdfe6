package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
)

// TestResolveNonCanonicalFailsFast pins the cluster client's §6 boundary:
// a non-canonical name is rejected locally — no retries, no failover.
func TestResolveNonCanonicalFailsFast(t *testing.T) {
	cl := startCluster(t, 4)
	client, err := Dial("tcp", cl.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	for _, p := range []core.Path{{}, {"usr", "bin/ls"}, {"usr", ""}} {
		if _, err := client.Resolve(p); !errors.Is(err, nameserver.ErrNotCanonical) {
			t.Fatalf("Resolve(%q) err = %v, want ErrNotCanonical", p, err)
		}
	}
	if n := client.Failovers(); n != 0 {
		t.Fatalf("Failovers = %d after local rejections, want 0", n)
	}

	// Mixed batch: the bad name fails in its slot, the good one resolves.
	out, err := client.ResolveBatch([]core.Path{
		core.ParsePath("usr/bin/ls"),
		{"etc", "pass/wd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil {
		t.Fatalf("good slot failed: %v", out[0].Err)
	}
	if !errors.Is(out[1].Err, nameserver.ErrNotCanonical) {
		t.Fatalf("bad slot err = %v, want ErrNotCanonical", out[1].Err)
	}
}

// TestCloseRacesBatch pins what a batch sees when Close lands mid-flight:
// with no goroutines to join, the batch must still return promptly, and
// every slot must hold either ErrClientClosed or the transport error its
// closed connection gave — never a hang, never a silent empty answer.
// Batches after Close fail fast with ErrClientClosed in every slot.
func TestCloseRacesBatch(t *testing.T) {
	cl := startCluster(t, 4)
	client, err := Dial("tcp", cl.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	paths := parsedTestPaths()
	shards := map[int]bool{}
	for _, p := range paths {
		shards[cl.Routes().ShardFor(p)] = true
	}
	if len(shards) < 2 {
		t.Fatalf("test paths span %d shards, want ≥2", len(shards))
	}
	if _, err := client.ResolveBatch(paths); err != nil { // dial every shard
		t.Fatal(err)
	}

	want, err := client.ResolveBatch(paths)
	if err != nil {
		t.Fatal(err)
	}

	// Race Close against a stream of uncached batches. The first batch
	// with a failed slot is the one Close caught in flight (or the first
	// after it); every batch up to it must be correct slot by slot.
	done := make(chan error, 1)
	go func() {
		for {
			out, _ := client.ResolveBatch(paths)
			failed := false
			for i, r := range out {
				switch {
				case r.Err == nil && r.Entity != want[i].Entity:
					done <- fmt.Errorf("slot %d = %v, want %v", i, r.Entity, want[i].Entity)
					return
				case r.Err == nil:
				case !closedOrTransport(r.Err):
					done <- fmt.Errorf("slot %d err = %v, want ErrClientClosed or a transport error", i, r.Err)
					return
				default:
					failed = true
				}
			}
			if failed {
				done <- nil
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	client.Close()
	closed := time.Now()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(closed); d > time.Second {
			t.Fatalf("batch returned %v after Close", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a batch racing Close did not return")
	}

	// After Close, batches fail fast with ErrClientClosed in every slot.
	out, err := client.ResolveBatch(paths)
	if !errors.Is(err, ErrClientClosed) {
		t.Fatalf("ResolveBatch after Close: err = %v, want ErrClientClosed", err)
	}
	for i, r := range out {
		if !errors.Is(r.Err, ErrClientClosed) {
			t.Fatalf("slot %d err = %v, want ErrClientClosed", i, r.Err)
		}
	}
}

// closedOrTransport reports whether err is what a closing client may hand
// a slot: either package's ErrClientClosed, or the transport error of a
// connection closed under a call.
func closedOrTransport(err error) bool {
	var netErr net.Error
	return errors.Is(err, ErrClientClosed) || errors.Is(err, nameserver.ErrClientClosed) ||
		errors.As(err, &netErr) || errors.Is(err, io.EOF)
}

func parsedTestPaths() []core.Path {
	paths := make([]core.Path, len(testPaths))
	for i, raw := range testPaths {
		paths[i] = core.ParsePath(raw)
	}
	return paths
}
