//go:build !race

// Allocation floors for the cluster read path. allocfree checks the
// annotated roots statically, but it cannot see through the generic LRU,
// so these runtime floors pin what a warm client allocates per call. The
// counts include the in-process servers' side of each round-trip.
// Excluded under -race: the race runtime adds its own allocations.
package cluster

import (
	"testing"

	"namecoherence/internal/core"
)

// clusterAllocFloor asserts that f averages at most want allocations per
// run. Floors are ceilings: shaving another allocation must not fail.
func clusterAllocFloor(t *testing.T, name string, want float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, f); got > want {
		t.Errorf("%s: %.1f allocs/op, want ≤ %.0f — an allocation crept onto the cluster read path", name, got, want)
	}
}

// batchOf repeats paths round-robin into a batch of n.
func batchOf(paths []core.Path, n int) []core.Path {
	batch := make([]core.Path, n)
	for i := range batch {
		batch[i] = paths[i%len(paths)]
	}
	return batch
}

// TestResolveAllocFloor: an uncached Resolve allocates its miss key and
// the flight — two. The round-trip itself reuses a pooled call state for
// its wire path, completion signal and timer, so it adds none.
func TestResolveAllocFloor(t *testing.T) {
	cl := startCluster(t, 4)
	client, err := Dial("tcp", cl.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	paths := parsedTestPaths()
	for _, p := range paths { // dial every shard first
		if _, err := client.Resolve(p); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	clusterAllocFloor(t, "Resolve/uncached", 2, func() {
		if _, err := client.Resolve(paths[i%len(paths)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// TestResolveBatchAllocFloor pins the batch path. An all-hit batch is
// answered from the cache by key bytes and allocates only the slice it
// returns. A mixed batch adds one key per distinct miss and nothing per
// shard: each shard's round-trip is issued and collected on the caller's
// goroutine over a pooled call state, into pooled results.
func TestResolveBatchAllocFloor(t *testing.T) {
	cl := startCluster(t, 4)
	client, err := Dial("tcp", cl.Addrs()[0], WithLRU(64))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	paths := parsedTestPaths()
	batch := batchOf(paths, 32)
	if _, err := client.ResolveBatch(batch); err != nil {
		t.Fatal(err)
	}

	clusterAllocFloor(t, "ResolveBatch/all-hit", 1, func() {
		out, err := client.ResolveBatch(batch)
		if err != nil || out[0].Err != nil {
			t.Fatal(err, out[0].Err)
		}
	})

	// etc/passwd and home/alice/notes live on different shards (the
	// cluster splits by first component), so the misses fan out to two.
	misses := []string{"etc/passwd", "home/alice/notes"}
	shards := map[int]bool{}
	for _, raw := range misses {
		shards[cl.Routes().ShardFor(core.ParsePath(raw))] = true
	}
	if len(shards) != 2 {
		t.Fatalf("miss names span %d shards, want 2", len(shards))
	}
	clusterAllocFloor(t, "ResolveBatch/mixed", 3, func() {
		client.mu.Lock()
		for _, key := range misses {
			client.cache.Delete(key)
		}
		client.mu.Unlock()
		out, err := client.ResolveBatch(batch)
		if err != nil || out[2].Err != nil {
			t.Fatal(err, out[2].Err)
		}
	})
	if hits, misses := client.Stats(); hits == 0 || misses == 0 {
		t.Fatalf("hits = %d, misses = %d: the mixed batch did not mix", hits, misses)
	}
}
