package nameserver

// wirePeer drives one end of a connection by hand with the package's own
// codec, for tests whose peer must do what a real Client or Server never
// would: stall, withhold an answer, or send a request the client would
// refuse to build. It does the hello, then moves whole frames through
// readFrame/parse<T> and append<T>/writeFrame.

import (
	"bufio"
	"fmt"
	"net"
)

type wirePeer struct {
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	frame []byte
	wbuf  []byte
	errs  strIntern
}

func newWirePeer(conn net.Conn) *wirePeer {
	return &wirePeer{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

// acceptPeer plays the server side of the hello on conn: it requires the
// protocol magic as the first byte and echoes it.
func acceptPeer(conn net.Conn) (*wirePeer, error) {
	p := newWirePeer(conn)
	first, err := p.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if first != protocolMagic {
		return nil, fmt.Errorf("first byte 0x%02x, want the protocol magic", first)
	}
	if _, err := conn.Write([]byte{protocolMagic}); err != nil {
		return nil, err
	}
	return p, nil
}

// dialPeer plays the client side of the hello on conn: it sends the
// protocol magic and requires the server's echo.
func dialPeer(conn net.Conn) (*wirePeer, error) {
	p := newWirePeer(conn)
	if _, err := conn.Write([]byte{protocolMagic}); err != nil {
		return nil, err
	}
	echo, err := p.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if echo != protocolMagic {
		return nil, fmt.Errorf("echo 0x%02x, want the protocol magic", echo)
	}
	return p, nil
}

// readRequest reads one request frame. Each request gets its own parse
// scratch, so it stays valid after later reads.
func (p *wirePeer) readRequest() (request, error) {
	var req request
	body, err := readFrame(p.br, &p.frame)
	if err != nil {
		return req, err
	}
	var sc workerScratch
	err = parseRequest(body, &req, &sc)
	return req, err
}

// readResponse reads one response frame.
func (p *wirePeer) readResponse() (response, error) {
	var resp response
	body, err := readFrame(p.br, &p.frame)
	if err != nil {
		return resp, err
	}
	err = parseResponse(body, &resp, &p.errs)
	return resp, err
}

// writeRequest writes and flushes one request frame.
func (p *wirePeer) writeRequest(req request) error {
	p.wbuf = appendRequest(p.wbuf[:0], &req)
	return p.flushFrame()
}

// writeResponse writes and flushes one response frame.
func (p *wirePeer) writeResponse(resp response) error {
	p.wbuf = appendResponse(p.wbuf[:0], &resp)
	return p.flushFrame()
}

func (p *wirePeer) flushFrame() error {
	if err := writeFrame(p.bw, p.wbuf); err != nil {
		return err
	}
	return p.bw.Flush()
}
