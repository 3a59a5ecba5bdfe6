package nameserver

import (
	"reflect"
	"testing"
)

// populated returns a representative, fully-populated value of each wire
// type. Every field is non-zero (TestWireRegistryComplete holds it to
// that) so a field the codec silently drops fails the round-trip
// comparison.
func populated() map[string]any {
	return map[string]any{
		"request": request{
			ID:         11,
			Path:       []string{"usr", "alice", "bin"},
			Paths:      [][]string{{"a"}, {"b", "c"}},
			Routes:     true,
			Subscribe:  true,
			Op:         OpBind,
			Name:       "ls",
			Target:     88,
			TargetKind: 2,
			AtRev:      41,
			Twin:       17,
		},
		"result": result{
			ID:   42,
			Kind: 3,
			Err:  "no such name",
		},
		"response": response{
			ID:   7,
			Ent:  12,
			Kind: 1,
			Rev:  99,
			Err:  "boom",
			Results: []result{
				{ID: 1, Kind: 2, Err: ""},
				{ID: 0, Kind: 0, Err: "missing"},
			},
			Routes: &RouteInfo{
				Prefixes: map[string]int{"usr": 1, "srv": 2},
				Default:  0,
				Addrs:    []string{"a:1", "b:2", "c:3"},
				Replicas: [][]string{{"a:1", "a:9"}, {"b:2"}, {"c:3"}},
			},
			Invalidation: true,
		},
		"RouteInfo": RouteInfo{
			Prefixes: map[string]int{"x": 4},
			Default:  4,
			Addrs:    []string{"x:1"},
			Replicas: [][]string{{"x:1", "x:2"}},
		},
	}
}

// TestWireRoundTrip encodes and decodes a populated value of every
// registered wire type through its append<T>/parse<T> pair and requires
// the result to be identical.
func TestWireRoundTrip(t *testing.T) {
	values := populated()
	for name := range wireTypes {
		if _, ok := values[name]; !ok {
			t.Fatalf("wire type %q has no populated test value; add one to populated()", name)
		}
	}
	for name, v := range values {
		if _, ok := wireTypes[name]; !ok {
			t.Fatalf("test value %q is not in the wireTypes registry", name)
		}
		if got := binaryRoundTrip(t, v); !reflect.DeepEqual(got, v) {
			t.Errorf("%s: round trip mismatch:\n got %#v\nwant %#v", name, got, v)
		}
	}
}

// TestWireRegistryComplete requires every registered wire type to be a
// struct whose populated() value sets every field: a zero field would
// round-trip unchanged even if the codec dropped it, so TestWireRoundTrip
// would miss the loss.
func TestWireRegistryComplete(t *testing.T) {
	values := populated()
	for name, v := range wireTypes {
		rt := reflect.TypeOf(v)
		if rt.Kind() != reflect.Struct {
			t.Errorf("%s: wire type is %s, want struct", name, rt.Kind())
			continue
		}
		pv, ok := values[name]
		if !ok {
			t.Errorf("%s: no populated test value", name)
			continue
		}
		rv := reflect.ValueOf(pv)
		for i := 0; i < rt.NumField(); i++ {
			if rv.Field(i).IsZero() {
				t.Errorf("%s: populated value leaves field %s zero", name, rt.Field(i).Name)
			}
		}
	}
}
