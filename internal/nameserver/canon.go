package nameserver

import (
	"errors"
	"fmt"
	"strings"

	"namecoherence/internal/core"
)

// ErrNotCanonical reports a name that cannot cross the wire coherently:
// resolved on the far side, it would not denote what the sender meant.
// The paper's §6 remedy is mechanical — convert every name to its
// coherent (canonical) form before embedding it in an object or message —
// and this boundary is where the conversion (and its failures) live.
var ErrNotCanonical = errors.New("name is not wire-canonical")

// CheckWirePath validates p as a canonical wire path: non-empty, no
// empty components, and no component containing the path separator. An
// empty path names "wherever the server's export root happens to be"; a
// separator inside a component smuggles extra resolution steps past the
// sender's own parse — both resolve differently on the two sides of the
// wire, which is precisely the incoherence §6 forbids. It copies nothing,
// so callers that only need the verdict (cache hits, routing checks) use
// it instead of CanonicalWirePath.
func CheckWirePath(p core.Path) error {
	// IndexByte, not Contains: this runs for every name a client resolves,
	// cache hits included.
	for _, n := range p {
		if strings.IndexByte(string(n), core.Separator[0]) >= 0 {
			//namingvet:allocfree-exempt -- cold: a rejected name formats its error
			return fmt.Errorf("component %q of %q contains %q: %w",
				string(n), p.String(), core.Separator, ErrNotCanonical)
		}
	}
	if !p.IsValid() {
		//namingvet:allocfree-exempt -- cold: a rejected name formats its error
		return fmt.Errorf("path %q: %w", p.String(), ErrNotCanonical)
	}
	return nil
}

// CanonicalWirePath appends p's canonical wire form to dst, rejecting
// names that cannot round-trip coherently. Every value stored in a wire
// request's Path field must come from here (wirecanon enforces it). The
// append form lets a caller reuse one buffer across round-trips; pass nil
// for a fresh slice.
//
//namingvet:canonicalizer
func CanonicalWirePath(dst []string, p core.Path) ([]string, error) {
	if err := CheckWirePath(p); err != nil {
		return dst, err
	}
	for _, n := range p {
		dst = append(dst, string(n))
	}
	return dst, nil
}

// canonicalWirePaths appends a batch's wire form: one header per path to
// hdrs, each a window of flat, which holds every name's components end to
// end. The whole batch is rejected on the first non-canonical path: a
// batch is one message, and a message with one incoherent name in it is an
// incoherent message. The headers come first among the results because
// they are what the request carries; flat is returned so the caller keeps
// the grown buffer.
//
//namingvet:canonicalizer
func canonicalWirePaths(hdrs [][]string, flat []string, paths []core.Path) ([][]string, []string, error) {
	total := 0
	for _, p := range paths {
		if err := CheckWirePath(p); err != nil {
			return hdrs, flat, err
		}
		total += len(p)
	}
	if cap(flat) < total {
		//namingvet:allocfree-exempt -- amortized: a call state's wire buffer grows to its high-water mark once
		flat = make([]string, 0, total)
	}
	flat = flat[:total]
	rest := flat
	for _, p := range paths {
		raw := rest[:len(p):len(p)]
		rest = rest[len(p):]
		for i, n := range p {
			raw[i] = string(n)
		}
		hdrs = append(hdrs, raw)
	}
	return hdrs, flat, nil
}
