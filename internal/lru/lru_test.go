package lru

import (
	"fmt"
	"testing"
)

func TestPutGet(t *testing.T) {
	c := New[string, int](4)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get(missing) hit")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	// Touch a so b becomes the eviction victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Fatalf("Get(%s) = %d, %v; want %d", k, v, ok, want)
		}
	}
}

func TestRebindUpdatesInPlace(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 9) // no eviction: a already present
	if v, _ := c.Get("a"); v != 9 {
		t.Fatalf("Get(a) = %d, want 9", v)
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b evicted by an in-place rebind")
	}
}

func TestDeterministicEvictionOrder(t *testing.T) {
	// The motivating property: a fixed access sequence always leaves the
	// same residue (the old map-based cache evicted an arbitrary entry).
	run := func() []string {
		c := New[string, bool](3)
		for _, k := range []string{"a", "b", "c", "a", "d", "e", "b"} {
			if _, ok := c.Get(k); !ok {
				c.Put(k, true)
			}
		}
		var got []string
		for _, k := range []string{"a", "b", "c", "d", "e"} {
			if _, ok := c.Get(k); ok {
				got = append(got, k)
			}
		}
		return got
	}
	first := run()
	for i := 0; i < 10; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("run %d: residue %v != %v", i, again, first)
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("run %d: residue %v != %v", i, again, first)
			}
		}
	}
}

func TestDeleteFuncAndClear(t *testing.T) {
	c := New[int, int](8)
	for i := 0; i < 6; i++ {
		c.Put(i, i*i)
	}
	removed := c.DeleteFunc(func(k, _ int) bool { return k%2 == 0 })
	if removed != 3 || c.Len() != 3 {
		t.Fatalf("DeleteFunc removed %d, Len = %d", removed, c.Len())
	}
	if !c.Delete(2) || c.Delete(2) {
		t.Fatal("Delete(2) should succeed once")
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len after Clear = %d", c.Len())
	}
	// The cache stays usable after Clear.
	c.Put(7, 49)
	if v, ok := c.Get(7); !ok || v != 49 {
		t.Fatal("cache unusable after Clear")
	}
}

func TestZeroCapacityStoresNothing(t *testing.T) {
	c := New[string, int](0)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok || c.Len() != 0 {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

// TestSteadyStateAllocatesNothing pins the arena's point: once a cache is
// warm, hits, rebinds, byte-keyed lookups and evicting inserts allocate
// nothing. (allocfree cannot see generic instantiations, so this runtime
// floor is the check.)
func TestSteadyStateAllocatesNothing(t *testing.T) {
	keys := make([]string, 256)
	raw := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
		raw[i] = []byte(keys[i])
	}
	c := New[string, int](128)
	for i, k := range keys[:128] {
		c.Put(k, i)
	}
	// Evicting inserts grow the map once to its working size; run a full
	// cycle of them before measuring.
	for i, k := range keys {
		c.Put(k, i)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k := keys[i%len(keys)]
		if _, ok := c.Get(k); !ok {
			c.Put(k, i) // evicts the least recently used entry
		}
		c.Put(k, i+1) // rebind in place
		GetBytes(c, raw[(i+7)%len(raw)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put/GetBytes: %v allocs per run, want 0", allocs)
	}
}

// TestGetBytesMatchesGet checks the byte-keyed lookup against Get: same
// hit, same value, same recency bump.
func TestGetBytesMatchesGet(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := GetBytes(c, []byte("a")); !ok || v != 1 {
		t.Fatalf("GetBytes(a) = %d, %v", v, ok)
	}
	if _, ok := GetBytes(c, []byte("missing")); ok {
		t.Fatal("GetBytes(missing) hit")
	}
	c.Put("c", 3) // a was bumped by GetBytes, so b is the victim
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived; GetBytes did not mark a as used")
	}
}

// TestPurgeShrinksArena pins the memory half of the slice-backed list: a
// purge that leaves the arena mostly free re-packs it, keeping the
// survivors in recency order, instead of holding the high-water mark.
func TestPurgeShrinksArena(t *testing.T) {
	c := New[int, int](4096)
	for i := 0; i < 4096; i++ {
		c.Put(i, i)
	}
	// Keep every 100th key. Insertion order makes recency order the
	// reverse of key order.
	removed := c.DeleteFunc(func(k, _ int) bool { return k%100 == 0 })
	if removed != 4096-41 || c.Len() != 41 {
		t.Fatalf("DeleteFunc removed %d, Len = %d", removed, c.Len())
	}
	if n := cap(c.nodes); n > 4*c.Len() && n > minArena {
		t.Fatalf("arena holds %d slots for %d entries after the purge", n, c.Len())
	}
	var order []int
	c.DeleteFunc(func(k, _ int) bool { order = append(order, k); return true })
	for j, k := range order {
		if want := 4000 - 100*j; k != want {
			t.Fatalf("recency order after re-pack: %v", order)
		}
	}
	for _, k := range order {
		if v, ok := c.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = %d, %v after re-pack", k, v, ok)
		}
	}
	c.DeleteFunc(func(int, int) bool { return false })
	if c.Len() != 0 || cap(c.nodes) > minArena {
		t.Fatalf("empty cache keeps %d slots", cap(c.nodes))
	}
	c.Put(1, 1)
	if v, ok := c.Get(1); !ok || v != 1 {
		t.Fatal("cache unusable after a full purge")
	}
}
