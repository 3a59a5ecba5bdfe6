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
	if !p.IsValid() {
		//namingvet:allocfree-exempt -- cold: a rejected name formats its error
		return fmt.Errorf("path %q: %w", p.String(), ErrNotCanonical)
	}
	for _, n := range p {
		if strings.Contains(string(n), core.Separator) {
			//namingvet:allocfree-exempt -- cold: a rejected name formats its error
			return fmt.Errorf("component %q of %q contains %q: %w",
				string(n), p.String(), core.Separator, ErrNotCanonical)
		}
	}
	return nil
}

// CanonicalWirePath converts p to its canonical wire form, rejecting
// names that cannot round-trip coherently. Every value stored in a wire
// request's Path field must come from here (wirecanon enforces it).
//
//namingvet:canonicalizer
func CanonicalWirePath(p core.Path) ([]string, error) {
	if err := CheckWirePath(p); err != nil {
		return nil, err
	}
	//namingvet:allocfree-exempt -- the name's wire form: one copy per round-trip that carries it
	raw := make([]string, len(p))
	for i, n := range p {
		raw[i] = string(n)
	}
	return raw, nil
}

// canonicalWirePaths converts a batch, rejecting the whole batch on the
// first non-canonical path: a batch is one message, and a message with
// one incoherent name in it is an incoherent message. Every path's wire
// form is a window of one shared backing array, so a batch costs two
// allocations however many names it carries.
//
//namingvet:canonicalizer
func canonicalWirePaths(paths []core.Path) ([][]string, error) {
	total := 0
	for _, p := range paths {
		if err := CheckWirePath(p); err != nil {
			return nil, err
		}
		total += len(p)
	}
	//namingvet:allocfree-exempt -- the batch's wire form: one backing array for every name
	flat := make([]string, total)
	//namingvet:allocfree-exempt -- the batch's wire form: one header per name, windows of flat
	raws := make([][]string, len(paths))
	for k, p := range paths {
		raw := flat[:len(p):len(p)]
		flat = flat[len(p):]
		for i, n := range p {
			raw[i] = string(n)
		}
		raws[k] = raw
	}
	return raws, nil
}
