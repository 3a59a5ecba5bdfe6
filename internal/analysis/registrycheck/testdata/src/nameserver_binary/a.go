// Package nameserver exercises registrycheck's codec-completeness rule on
// its own, in a package whose registry and request handling are otherwise
// clean: every registered wire type needs both append<T> and parse<T>, and
// each must touch every field. A type with only one half of the pair is
// reported, and so is a decoder that skips a field the encoder writes.
// (The directory path contains "nameserver" so the package lands in the
// analyzer's scope.)
package nameserver

// request has a full codec pair below; the decoder forgets Seq.
type request struct {
	ID   uint64
	Path []string
	Seq  uint64
}

// ack has an encoder but no decoder: a peer could send it but never read
// it back.
type ack struct {
	OK bool
}

var wireTypes = map[string]any{
	"request": request{},
	"ack":     ack{}, // want `wire type ack has no codec function parseAck`
}

func serve(data []byte) []byte {
	var req request
	if err := parseRequest(data, &req); err != nil {
		return nil
	}
	use(req.ID, req.Path, req.Seq)
	return appendAck(nil, &ack{OK: true})
}

func use(...any) {}

// appendRequest touches every field: no complaint.
func appendRequest(b []byte, req *request) []byte {
	b = append(b, byte(req.ID), byte(req.Seq))
	for _, s := range req.Path {
		b = append(b, s...)
	}
	return b
}

// parseRequest fills ID and Path but never Seq: the field would read as
// zero on every frame without a runtime error.
func parseRequest(data []byte, req *request) error { // want `codec function parseRequest never touches request.Seq`
	req.ID = uint64(data[0])
	req.Path = []string{string(data[1:])}
	return nil
}

func appendAck(b []byte, a *ack) []byte {
	if a.OK {
		return append(b, 1)
	}
	return append(b, 0)
}
