// Package nameserver exercises registrycheck: the wireTypes registry must
// list exactly the package-local structs reachable from the codec's entry
// points, every request field must be read by some handler, and every
// registered type needs an append/parse pair that touches every field.
// (The directory is named nameserver so the testdata package path lands
// in the analyzer's scope.)
package nameserver

// request is the wire request; Watch is a kind no handler ever looks at.
type request struct {
	Op    string
	Path  []string
	Watch bool // want `request field Watch is never read in this package: a request kind no handler serves`
}

// response crosses the wire and drags result and ack along through its
// fields.
type response struct {
	Results []result
	Err     string
	Ack     *ack
}

// result is reachable only through response.Results, which is enough.
type result struct {
	Addr string
}

// orphan crosses the wire below but was never registered.
type orphan struct { // want `wire type orphan crosses the wire through a codec entry point but is missing from the wireTypes registry`
	X int
}

// stale is registered and has a codec pair, but no entry point reaches it.
type stale struct {
	Y int
}

// ack is registered and reached through response.Ack, but has no codec
// functions at all: two missing functions, reported on its one registry
// line.
type ack struct {
	OK bool
}

// unrelated neither crosses the wire nor is registered: no complaint.
type unrelated struct {
	Z int
}

var wireTypes = map[string]any{
	"request":  request{},
	"response": response{},
	"result":   result{},
	"stale":    stale{}, // want `wireTypes entry stale is reached by no codec entry point; dead registry entries hide real gaps`
	"ack":      ack{},   // want `wire type ack has no codec function`
}

// serve decodes a request and encodes the response: parseRequest and
// appendResponse are entry points.
func serve(data []byte) []byte {
	var req request
	if err := parseRequest(data, &req); err != nil {
		return nil
	}
	var resp response
	switch req.Op {
	case "resolve":
		resp.Results = []result{{Addr: join(req.Path)}}
	default:
		resp.Err = "unknown op"
	}
	return appendResponse(nil, &resp)
}

func leak() []byte {
	return appendOrphan(nil, &orphan{X: 1})
}

// appendRequest covers Op and Watch but skips Path: the field would
// vanish from every frame without a runtime error.
func appendRequest(b []byte, req *request) []byte { // want `codec function appendRequest never touches request.Path`
	b = append(b, req.Op...)
	if req.Watch {
		b = append(b, 1)
	}
	return b
}

// parseRequest touches every field: no complaint.
func parseRequest(data []byte, req *request) error {
	req.Op = string(data)
	req.Path = nil
	req.Watch = false
	return nil
}

func appendResponse(b []byte, resp *response) []byte {
	for i := range resp.Results {
		b = appendResult(b, &resp.Results[i])
	}
	if resp.Ack != nil && resp.Ack.OK {
		b = append(b, 1)
	}
	return append(b, resp.Err...)
}

func parseResponse(data []byte, resp *response) error {
	resp.Results = nil
	resp.Err = string(data)
	resp.Ack = nil
	return nil
}

// appendResult and parseResult are called only by other codec functions:
// they root nothing, result is reached through response.Results.
func appendResult(b []byte, res *result) []byte { return append(b, res.Addr...) }

func parseResult(data []byte, res *result) error {
	res.Addr = string(data)
	return nil
}

func appendStale(b []byte, s *stale) []byte { return append(b, byte(s.Y)) }

func parseStale(data []byte, s *stale) error {
	s.Y = int(data[0])
	return nil
}

func appendOrphan(b []byte, o *orphan) []byte { return append(b, byte(o.X)) }

func join(parts []string) string {
	out := ""
	for _, p := range parts {
		out += "/" + p
	}
	return out
}

var _ = unrelated{}
