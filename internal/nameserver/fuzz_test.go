package nameserver

// Native fuzz targets for the binary wire codec. The decoder's contract
// under fuzzing: arbitrary bytes never panic it and never read past the
// frame; any bytes it accepts decode to a value whose re-encoding is
// stable (encode→decode→encode is a fixed point). CI runs each target
// briefly on every push; `go test -fuzz FuzzBinaryRequest
// ./internal/nameserver` explores further.

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

func FuzzBinaryRequest(f *testing.F) {
	req := populated()["request"].(request)
	f.Add(appendRequest(nil, &req))
	f.Add(appendRequest(nil, &request{ID: 1}))
	f.Add(appendRequest(nil, &request{ID: 2, Paths: [][]string{{"a"}, {}, {"b", "c"}}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 16)) // maximal varints
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc workerScratch
		var req request
		if err := parseRequest(data, &req, &sc); err != nil {
			return // rejected input is fine; panicking or over-reading is not
		}
		body := appendRequest(nil, &req)
		var again request
		var sc2 workerScratch
		if err := parseRequest(body, &again, &sc2); err != nil {
			t.Fatalf("re-encoded accepted request failed to parse: %v\n body %x", err, body)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("request round trip not a fixed point:\n first  %#v\n second %#v", req, again)
		}
		if stable := appendRequest(nil, &again); !bytes.Equal(body, stable) {
			t.Fatalf("request re-encode not byte-stable:\n %x\n %x", body, stable)
		}
	})
}

func FuzzBinaryResponse(f *testing.F) {
	resp := populated()["response"].(response)
	f.Add(appendResponse(nil, &resp))
	f.Add(appendResponse(nil, &response{ID: 1, Rev: 9}))
	f.Add(appendResponse(nil, &response{ID: 0, Invalidation: true}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x80}, 12)) // non-terminating varint
	f.Fuzz(func(t *testing.T, data []byte) {
		var errs strIntern
		var resp response
		if err := parseResponse(data, &resp, &errs); err != nil {
			return
		}
		body := appendResponse(nil, &resp)
		var again response
		if err := parseResponse(body, &again, &errs); err != nil {
			t.Fatalf("re-encoded accepted response failed to parse: %v\n body %x", err, body)
		}
		if !reflect.DeepEqual(resp, again) {
			t.Fatalf("response round trip not a fixed point:\n first  %#v\n second %#v", resp, again)
		}
		if stable := appendResponse(nil, &again); !bytes.Equal(body, stable) {
			t.Fatalf("response re-encode not byte-stable:\n %x\n %x", body, stable)
		}
	})
}

// FuzzBinaryFrame drives the frame layer: a length prefix plus arbitrary
// body bytes. readFrame must never panic, never hand back more bytes
// than the stream held, and must enforce the frame size bound.
func FuzzBinaryFrame(f *testing.F) {
	req := populated()["request"].(request)
	var framed bytes.Buffer
	bw := bufio.NewWriter(&framed)
	if err := writeFrame(bw, appendRequest(nil, &req)); err != nil {
		f.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	f.Add([]byte{0})                            // empty frame
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // length far past maxFrame
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		body, err := readFrame(bufio.NewReader(bytes.NewReader(data)), &buf)
		if err != nil {
			return
		}
		if len(body) > len(data) {
			t.Fatalf("readFrame returned %d bytes from a %d-byte stream", len(body), len(data))
		}
		if len(body) > maxFrame {
			t.Fatalf("readFrame accepted a %d-byte frame past the %d bound", len(body), maxFrame)
		}
	})
}
