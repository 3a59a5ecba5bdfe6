// Wire codec: a hand-rolled, length-prefixed binary encoding for the
// closed wire-type set in wire.go. It encodes by appending to a reused
// buffer and decodes by slicing a reused frame, so a steady resolve
// round-trip touches the allocator zero times.
//
// # Framing
//
// Every message is one frame: a uvarint byte length followed by exactly
// that many body bytes. The body is the message's fields in struct
// declaration order (wire.go is the schema; registrycheck verifies the
// codec covers every field of every registered type). Within a body:
//
//   - unsigned integers (uint64, counts, lengths) are uvarints
//   - single-byte fields (uint8) are one raw byte
//   - bools are one byte, strictly 0 or 1
//   - strings are a uvarint length followed by the bytes
//   - slices are a uvarint count followed by the elements; a zero count
//     decodes to nil (nil and empty collapse, so no caller can tell)
//   - the one pointer field (response.Routes) is a presence byte, then
//     the RouteInfo body if present
//
// Which message type a frame holds is positional, never encoded:
// clients only send requests and servers only send responses.
//
// # Hello
//
// A client opens with a single magic byte (0xB1) and waits for the
// server to echo it before sending any frame. The server closes any
// connection whose first byte is anything else, before it parses a frame
// or starts a worker, and a client fails Dial unless the echo arrives —
// so a peer that does not speak this protocol is refused at once on
// either end instead of being misread frame by frame.
package nameserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"sort"
)

// protocolMagic is the one-byte hello: the client's opening byte and the
// server's echo.
const protocolMagic byte = 0xB1

// maxFrame bounds a frame body. Requests and responses are small (the
// largest realistic frame is a batch of resolutions); a length beyond
// this is a corrupt or hostile stream, refused before any allocation.
const maxFrame = 1 << 20

// Decode error sentinels. One value each: malformed input is a stream
// error — the connection dies — so the errors carry no per-frame detail
// and cost nothing to return.
var (
	errFrameTooBig  = errors.New("binary codec: frame exceeds size bound")
	errShortFrame   = errors.New("binary codec: truncated field")
	errBadVarint    = errors.New("binary codec: malformed varint")
	errBadCount     = errors.New("binary codec: collection count exceeds frame")
	errBadBool      = errors.New("binary codec: bool byte is neither 0 nor 1")
	errBadPresence  = errors.New("binary codec: presence byte is neither 0 nor 1")
	errTrailingData = errors.New("binary codec: trailing bytes after message")
)

// writeFrame writes one length-prefixed frame to bw. Flushing is the
// caller's business (the flush-elision discipline in send/respond).
// The header goes out byte-at-a-time: a local array sliced into
// bw.Write escapes to the heap, and this sits on the per-request path.
func writeFrame(bw *bufio.Writer, body []byte) error {
	n := uint64(len(body))
	for n >= 0x80 {
		if err := bw.WriteByte(byte(n) | 0x80); err != nil {
			return err
		}
		n >>= 7
	}
	if err := bw.WriteByte(byte(n)); err != nil {
		return err
	}
	_, err := bw.Write(body)
	return err
}

// readFrame reads one frame body into *buf (grown once to the
// connection's high-water frame size, then reused) and returns the body
// slice. A clean EOF at the frame boundary surfaces as io.EOF so the
// caller can tell a closed peer from a torn frame.
func readFrame(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, errFrameTooBig
	}
	if uint64(cap(*buf)) < n {
		//namingvet:allocfree-exempt -- amortized: the frame buffer grows to the high-water mark once
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(br, b); err != nil {
		return nil, err
	}
	return b, nil
}

// frameReader walks one frame body. Every method bounds-checks against
// the slice and reports malformed input as an error: arbitrary bytes can
// never panic it or read past the frame (the fuzz target holds it to
// that).
type frameReader struct {
	b   []byte
	off int
}

func (r *frameReader) remaining() int { return len(r.b) - r.off }

func (r *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, errBadVarint
	}
	r.off += n
	return v, nil
}

func (r *frameReader) readByte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, errShortFrame
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *frameReader) readBool() (bool, error) {
	c, err := r.readByte()
	if err != nil {
		return false, err
	}
	switch c {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, errBadBool
}

// count reads a collection length, bounding it by the bytes left in the
// frame: every element costs at least one byte, so a count beyond the
// remainder is malformed — and a hostile count can never force a huge
// allocation, because allocations are sized by count.
func (r *frameReader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()) {
		return 0, errBadCount
	}
	return int(v), nil
}

// bytes reads a length-prefixed byte string as a subslice of the frame
// (no copy; callers intern or copy before the frame buffer is reused).
func (r *frameReader) bytes() ([]byte, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

// strIntern is a bounded string intern table: get returns a string equal
// to b, allocating only the first time a distinct value is seen. Decode
// runs the small recurring vocabulary of a connection — path components,
// binding names, and the sentinel error strings of failed resolutions
// (§4's locality of naming, observed at the codec) — through it, so a
// string that repeats frame after frame costs one allocation ever, not
// one per frame. The table resets when full, so an unbounded or hostile
// vocabulary cannot grow it without limit.
type strIntern struct {
	m map[string]string
}

// internLimit bounds the table; past it the table is discarded and
// rebuilt, keeping the steady state amortized-zero for any vocabulary
// that fits and merely amortized-small for one that does not.
const internLimit = 4096

func (in *strIntern) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok { // compiler elides the key copy
		return s
	}
	if in.m == nil || len(in.m) >= internLimit {
		//namingvet:allocfree-exempt -- amortized: the intern table (re)builds on first use or overflow
		in.m = make(map[string]string, 64)
	}
	//namingvet:allocfree-exempt -- amortized: each distinct string interns once
	s := string(b)
	in.m[s] = s
	return s
}

// appendUvarint appends v in LEB128 form.
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	b = append(b, byte(v))
	return b
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	b = append(b, s...)
	return b
}

// appendBool appends a strict 0/1 byte.
func appendBool(b []byte, v bool) []byte {
	c := byte(0)
	if v {
		c = 1
	}
	b = append(b, c)
	return b
}

// appendRequest appends req's binary body — every request field, in
// declaration order (registrycheck holds it to that).
func appendRequest(b []byte, req *request) []byte {
	b = appendUvarint(b, req.ID)
	b = appendUvarint(b, uint64(len(req.Path)))
	for _, s := range req.Path {
		b = appendString(b, s)
	}
	b = appendUvarint(b, uint64(len(req.Paths)))
	for _, p := range req.Paths {
		b = appendUvarint(b, uint64(len(p)))
		for _, s := range p {
			b = appendString(b, s)
		}
	}
	b = appendBool(b, req.Routes)
	b = appendBool(b, req.Subscribe)
	b = append(b, req.Op)
	b = appendString(b, req.Name)
	b = appendUvarint(b, req.Target)
	b = append(b, req.TargetKind)
	b = appendUvarint(b, req.AtRev)
	b = appendUvarint(b, req.Twin)
	return b
}

// parseRequest decodes one request body into req, backing the Path and
// Paths slices with the worker's scratch buffers and interning the
// string components (the working set of names repeats across frames).
// The decoded request is valid until the same scratch parses its next
// frame — exactly the lifetime the worker loop needs.
//
// The server re-validates decoded paths where they are used (resolveOne
// checks wire-canonical form): the receive boundary trusts no peer's
// encoder, so nothing here vouches for coherence.
//
//namingvet:wiredecoder
func parseRequest(data []byte, req *request, sc *workerScratch) error {
	r := frameReader{b: data}
	var err error
	if req.ID, err = r.uvarint(); err != nil {
		return err
	}
	n, err := r.count()
	if err != nil {
		return err
	}
	if n == 0 {
		req.Path = nil
	} else {
		if cap(sc.reqPath) < n {
			//namingvet:allocfree-exempt -- amortized: path scratch grows to the high-water mark once
			sc.reqPath = make([]string, 0, n)
		}
		ss := sc.reqPath[:0]
		for i := 0; i < n; i++ {
			cb, err := r.bytes()
			if err != nil {
				return err
			}
			ss = append(ss, sc.names.get(cb))
		}
		sc.reqPath = ss
		req.Path = ss
	}
	if n, err = r.count(); err != nil {
		return err
	}
	if n == 0 {
		req.Paths = nil
	} else {
		if cap(sc.reqPaths) < n {
			//namingvet:allocfree-exempt -- amortized: batch scratch grows to the high-water mark once
			grown := make([][]string, n)
			copy(grown, sc.reqPaths)
			sc.reqPaths = grown
		}
		outer := sc.reqPaths[:n]
		for i := range outer {
			m, err := r.count()
			if err != nil {
				return err
			}
			inner := outer[i][:0]
			for j := 0; j < m; j++ {
				cb, err := r.bytes()
				if err != nil {
					return err
				}
				inner = append(inner, sc.names.get(cb))
			}
			outer[i] = inner
		}
		req.Paths = outer
	}
	if req.Routes, err = r.readBool(); err != nil {
		return err
	}
	if req.Subscribe, err = r.readBool(); err != nil {
		return err
	}
	if req.Op, err = r.readByte(); err != nil {
		return err
	}
	nb, err := r.bytes()
	if err != nil {
		return err
	}
	req.Name = sc.names.get(nb)
	if req.Target, err = r.uvarint(); err != nil {
		return err
	}
	if req.TargetKind, err = r.readByte(); err != nil {
		return err
	}
	if req.AtRev, err = r.uvarint(); err != nil {
		return err
	}
	if req.Twin, err = r.uvarint(); err != nil {
		return err
	}
	if r.remaining() != 0 {
		return errTrailingData
	}
	return nil
}

// appendResult appends one batch result's fields.
func appendResult(b []byte, res *result) []byte {
	b = appendUvarint(b, res.ID)
	b = append(b, res.Kind)
	b = appendString(b, res.Err)
	return b
}

// parseResult decodes one batch result, interning the error string (the
// sentinel failures — not found, not mine — repeat across frames).
func parseResult(r *frameReader, res *result, errs *strIntern) error {
	var err error
	if res.ID, err = r.uvarint(); err != nil {
		return err
	}
	if res.Kind, err = r.readByte(); err != nil {
		return err
	}
	eb, err := r.bytes()
	if err != nil {
		return err
	}
	res.Err = errs.get(eb)
	return nil
}

// appendResponse appends resp's binary body — every response field, in
// declaration order.
func appendResponse(b []byte, resp *response) []byte {
	b = appendUvarint(b, resp.ID)
	b = appendUvarint(b, resp.Ent)
	b = append(b, resp.Kind)
	b = appendUvarint(b, resp.Rev)
	b = appendString(b, resp.Err)
	b = appendUvarint(b, uint64(len(resp.Results)))
	for i := range resp.Results {
		b = appendResult(b, &resp.Results[i])
	}
	if resp.Routes == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = appendRouteInfo(b, resp.Routes)
	}
	b = appendBool(b, resp.Invalidation)
	return b
}

// parseResponse decodes one response body into resp. Results reuses
// resp's own backing array (the caller owns resp, so nothing aliases),
// and error strings intern via errs.
func parseResponse(data []byte, resp *response, errs *strIntern) error {
	r := frameReader{b: data}
	var err error
	if resp.ID, err = r.uvarint(); err != nil {
		return err
	}
	if resp.Ent, err = r.uvarint(); err != nil {
		return err
	}
	if resp.Kind, err = r.readByte(); err != nil {
		return err
	}
	if resp.Rev, err = r.uvarint(); err != nil {
		return err
	}
	eb, err := r.bytes()
	if err != nil {
		return err
	}
	resp.Err = errs.get(eb)
	n, err := r.count()
	if err != nil {
		return err
	}
	if n == 0 {
		resp.Results = nil
	} else {
		rs := resp.Results[:0]
		for i := 0; i < n; i++ {
			var res result
			if err := parseResult(&r, &res, errs); err != nil {
				return err
			}
			rs = append(rs, res)
		}
		resp.Results = rs
	}
	p, err := r.readByte()
	if err != nil {
		return err
	}
	switch p {
	case 0:
		resp.Routes = nil
	case 1:
		ri, err := parseRouteInfo(&r)
		if err != nil {
			return err
		}
		resp.Routes = ri
	default:
		return errBadPresence
	}
	if resp.Invalidation, err = r.readBool(); err != nil {
		return err
	}
	if r.remaining() != 0 {
		return errTrailingData
	}
	return nil
}

// appendRouteInfo appends a routing table: Prefixes as sorted key/value
// pairs (deterministic bytes, so identical tables encode identically),
// then Default, Addrs, and Replicas. Bootstrap-only, so the sort's
// allocation is off the steady path.
//
//namingvet:allocfree-exempt -- bootstrap-only frame: a routing table crosses the wire once per client
func appendRouteInfo(b []byte, ri *RouteInfo) []byte {
	keys := make([]string, 0, len(ri.Prefixes))
	for k := range ri.Prefixes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = appendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k)
		b = appendUvarint(b, uint64(ri.Prefixes[k]))
	}
	b = appendUvarint(b, uint64(ri.Default))
	b = appendUvarint(b, uint64(len(ri.Addrs)))
	for _, a := range ri.Addrs {
		b = appendString(b, a)
	}
	b = appendUvarint(b, uint64(len(ri.Replicas)))
	for _, rs := range ri.Replicas {
		b = appendUvarint(b, uint64(len(rs)))
		for _, a := range rs {
			b = appendString(b, a)
		}
	}
	return b
}

// parseRouteInfo decodes a routing table. Bootstrap-only: it allocates
// freely — the table is handed to the caller and outlives the frame.
//
//namingvet:allocfree-exempt -- bootstrap-only frame: a routing table crosses the wire once per client
func parseRouteInfo(r *frameReader) (*RouteInfo, error) {
	ri := &RouteInfo{}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n > 0 {
		ri.Prefixes = make(map[string]int, n)
		for i := 0; i < n; i++ {
			kb, err := r.bytes()
			if err != nil {
				return nil, err
			}
			v, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			ri.Prefixes[string(kb)] = int(v)
		}
	}
	d, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	ri.Default = int(d)
	if n, err = r.count(); err != nil {
		return nil, err
	}
	if n > 0 {
		ri.Addrs = make([]string, n)
		for i := range ri.Addrs {
			ab, err := r.bytes()
			if err != nil {
				return nil, err
			}
			ri.Addrs[i] = string(ab)
		}
	}
	if n, err = r.count(); err != nil {
		return nil, err
	}
	if n > 0 {
		ri.Replicas = make([][]string, n)
		for i := range ri.Replicas {
			m, err := r.count()
			if err != nil {
				return nil, err
			}
			if m == 0 {
				continue
			}
			ri.Replicas[i] = make([]string, m)
			for j := range ri.Replicas[i] {
				ab, err := r.bytes()
				if err != nil {
					return nil, err
				}
				ri.Replicas[i][j] = string(ab)
			}
		}
	}
	return ri, nil
}
