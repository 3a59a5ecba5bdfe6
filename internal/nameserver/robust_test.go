package nameserver

import (
	"errors"
	"io"
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"

	"namecoherence/internal/core"
)

// A peer that sends garbage must not take the server down: its first
// byte is not the protocol magic, so the server closes the connection at
// once — before it starts a worker pool or a pusher for it — and other
// clients keep working.
func TestServerSurvivesGarbage(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext(), WithWorkers(8))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(ln)
	}()
	defer func() {
		s.Close()
		<-done
	}()
	baseline := runtime.NumGoroutine()

	// Garbage connection: the server hangs up without answering.
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	if _, err := raw.Write([]byte("\xff\x00garbage, not a frame\x01\x02\x03")); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	var buf [1]byte
	n, err := raw.Read(buf[:])
	var nerr net.Error
	switch {
	case n > 0:
		t.Fatalf("server answered a non-magic first byte with 0x%02x", buf[0])
	case errors.As(err, &nerr) && nerr.Timeout():
		t.Fatal("server kept a non-magic connection open")
	case !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET):
		t.Fatalf("read on refused conn: %v, want EOF", err)
	}
	// The refused conn's handler is gone and it never had workers (8 of
	// them would show here until the conn died).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after the refused conn, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A real client still gets answers.
	c, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	got, err := c.Resolve(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Fatalf("got %v", got)
	}
}

// Dial against a peer that is not a name server fails at the hello, not
// on the first call: a wrong first byte back fails it at once, and a
// silent peer fails it within the call timeout.
func TestDialRefusesNonNameServer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply []byte // nil: read the magic, never answer
	}{
		{"wrong byte", []byte("HTTP/1.1 400 Bad Request\r\n\r\n")},
		{"silent", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = ln.Close() }()
			release := make(chan struct{})
			defer close(release)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer func() { _ = conn.Close() }()
				var first [1]byte
				if _, err := conn.Read(first[:]); err != nil {
					return
				}
				if tc.reply != nil {
					_, _ = conn.Write(tc.reply)
				}
				<-release
			}()
			start := time.Now()
			c, err := Dial("tcp", ln.Addr().String(), WithTimeout(200*time.Millisecond))
			if err == nil {
				_ = c.Close()
				t.Fatal("Dial accepted a peer that did not echo the protocol magic")
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("Dial took %v to refuse the peer", d)
			}
		})
	}
}

// A peer that connects and immediately hangs up must not leak handlers.
func TestServerSurvivesImmediateHangup(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(ln)
	}()

	for i := 0; i < 10; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
	}
	// Close must return promptly (handlers all exited on EOF).
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung — leaked connection handlers")
	}
	<-done
}

// Client behaviour when the server closes mid-session: a clear error, not
// a hang.
func TestClientErrorAfterServerGone(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(ln)
	}()
	c, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.Resolve(core.ParsePath("usr")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	<-done
	if _, err := c.Resolve(core.ParsePath("usr")); err == nil {
		t.Fatal("resolve after server close succeeded")
	}
}
