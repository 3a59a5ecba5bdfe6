package core

import "strings"

// Name is a simple (atomic) name. The model places no structure on simple
// names; schemes built on the model give particular names (such as "/" or
// "..") conventional meanings.
type Name string

// Path is a compound name: a sequence of simple names resolved by recursion
// through context objects. A valid Path is non-empty and contains no empty
// components.
type Path []Name

// Separator is the conventional textual separator between the components of
// a compound name.
const Separator = "/"

// ParsePath splits a textual compound name on Separator, dropping empty
// components. Whether the text was absolute (began with the separator) is
// a scheme-level notion; use SplitPathString to preserve it.
func ParsePath(s string) Path {
	parts := strings.Split(s, Separator)
	p := make(Path, 0, len(parts))
	for _, part := range parts {
		if part == "" {
			continue
		}
		p = append(p, Name(part))
	}
	return p
}

// SplitPathString parses a textual compound name and reports whether it was
// absolute (began with the separator). The interpretation of absoluteness —
// usually "resolve starting from the activity's root binding" — belongs to
// the scheme, not the model.
func SplitPathString(s string) (abs bool, p Path) {
	return strings.HasPrefix(s, Separator), ParsePath(s)
}

// PathOf builds a Path from simple name components.
func PathOf(names ...Name) Path {
	p := make(Path, len(names))
	copy(p, names)
	return p
}

// String renders the path with the conventional separator and no leading
// separator. Client caches key on it for every lookup, so it allocates at
// most once: single-component paths convert for free, longer ones build
// into one exactly-sized buffer instead of a parts slice plus a Join.
func (p Path) String() string {
	switch len(p) {
	case 0:
		return ""
	case 1:
		return string(p[0])
	}
	size := (len(p) - 1) * len(Separator)
	for _, n := range p {
		size += len(n)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(string(p[0]))
	for _, n := range p[1:] {
		b.WriteString(Separator)
		b.WriteString(string(n))
	}
	return b.String()
}

// AppendString appends the path's String form to b and returns the
// extended buffer. Cache lookups build their key this way into reusable
// bytes, so a hit converts nothing to a string.
func (p Path) AppendString(b []byte) []byte {
	for i, n := range p {
		if i > 0 {
			b = append(b, Separator...)
		}
		b = append(b, n...)
	}
	return b
}

// Clone returns an independent copy of the path.
func (p Path) Clone() Path {
	q := make(Path, len(p))
	copy(q, p)
	return q
}

// Join returns a new path consisting of p followed by q.
func (p Path) Join(q Path) Path {
	r := make(Path, 0, len(p)+len(q))
	r = append(r, p...)
	r = append(r, q...)
	return r
}

// Append returns a new path consisting of p followed by the given names.
func (p Path) Append(names ...Name) Path {
	return p.Join(Path(names))
}

// IsValid reports whether the path is a well-formed compound name: non-empty
// with no empty components.
func (p Path) IsValid() bool {
	if len(p) == 0 {
		return false
	}
	for _, n := range p {
		if n == "" {
			return false
		}
	}
	return true
}

// Equal reports whether two paths have identical components.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// HasPrefix reports whether q is a (possibly equal) prefix of p.
func (p Path) HasPrefix(q Path) bool {
	if len(q) > len(p) {
		return false
	}
	return p[:len(q)].Equal(q)
}
