package nameserver

// Call states are reused across round-trips (see pendingCall). These tests
// pin the reuse discipline directly: whatever way a call ends, the state
// it leaves on the free list carries no completion signal and no armed
// timer, so its next use cannot return at once with an empty response.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"namecoherence/internal/core"
)

// errInjectedWrite is what a writeFailConn's writes return once armed.
var errInjectedWrite = errors.New("injected write failure")

// writeFailConn fails every write once armed and leaves reads alone: a
// send that dies on the wire while the stream is otherwise intact.
type writeFailConn struct {
	net.Conn
	fail atomic.Bool
}

func (c *writeFailConn) Write(b []byte) (int, error) {
	if c.fail.Load() {
		return 0, errInjectedWrite
	}
	return c.Conn.Write(b)
}

// checkFreeList fails the test if a released call state still holds a
// completion signal or an armed timer, and returns how many are pooled.
func checkFreeList(t *testing.T, c *Client) int {
	t.Helper()
	c.pmu.Lock()
	defer c.pmu.Unlock()
	n := 0
	for pc := c.free; pc != nil; pc = pc.next {
		n++
		if len(pc.done) != 0 {
			t.Errorf("released call state %d holds a stale completion signal", n)
		}
		if pc.armed {
			t.Errorf("released call state %d has its timer armed", n)
		}
	}
	return n
}

// TestCallStateReuseAfterFailure ends a call each way a call can fail
// mid-flight — its send fails, the stream dies under its leader, it times
// out — then checks that the released state is clean and that every later
// call on the client reports the poisoning error rather than a zero
// response.
func TestCallStateReuseAfterFailure(t *testing.T) {
	w, tr, _ := exportedTree(t)
	p := core.ParsePath("usr/bin/ls")

	cases := []struct {
		name string
		// start returns a client whose first call succeeds, plus a
		// function that makes the next call fail and the error it must
		// wrap (nil: any error will do).
		start func(t *testing.T) (*Client, func() error)
	}{
		{"send fails", func(t *testing.T) (*Client, func() error) {
			s := NewServer(w, tr.RootContext())
			serverEnd, clientEnd := net.Pipe()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.ServeConn(serverEnd)
			}()
			fc := &writeFailConn{Conn: clientEnd}
			c := NewClient(fc, WithTimeout(time.Second))
			t.Cleanup(func() {
				_ = c.Close()
				wg.Wait()
			})
			return c, func() error {
				fc.fail.Store(true)
				return errInjectedWrite
			}
		}},
		{"stream dies while leading", func(t *testing.T) (*Client, func() error) {
			clientConn, serverConn := net.Pipe()
			release := make(chan struct{})
			stallServer(t, serverConn, 1, release)
			c := NewClient(clientConn, WithCodec(CodecGob))
			t.Cleanup(func() { _ = c.Close() })
			return c, func() error {
				time.AfterFunc(50*time.Millisecond, func() { close(release) })
				return nil
			}
		}},
		{"call times out", func(t *testing.T) (*Client, func() error) {
			clientConn, serverConn := net.Pipe()
			release := make(chan struct{})
			stallServer(t, serverConn, 1, release)
			c := NewClient(clientConn, WithCodec(CodecGob), WithTimeout(100*time.Millisecond))
			t.Cleanup(func() {
				close(release)
				_ = c.Close()
			})
			return c, func() error { return nil }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, breakNext := tc.start(t)
			if _, err := c.Resolve(p); err != nil {
				t.Fatalf("first call: %v", err)
			}
			want := breakNext()
			_, err := c.Resolve(p)
			if err == nil || (want != nil && !errors.Is(err, want)) {
				t.Fatalf("failing call err = %v, want one wrapping %v", err, want)
			}
			if checkFreeList(t, c) == 0 {
				t.Fatal("the failed call's state was not released for reuse")
			}
			poison := c.Err()
			if poison == nil {
				t.Fatal("the failed call left the client healthy")
			}
			for i := 0; i < 4; i++ {
				e, err := c.Resolve(p)
				if !errors.Is(err, poison) || e != core.Undefined {
					t.Fatalf("call %d after the failure = %v, %v; want the poison error %v", i, e, err, poison)
				}
				out, _, err := c.ResolveBatchRev([]core.Path{p})
				if !errors.Is(err, poison) || out != nil {
					t.Fatalf("batch %d after the failure = %v, %v; want the poison error %v", i, out, err, poison)
				}
			}
			checkFreeList(t, c)
		})
	}
}

// TestPooledCallsUnderTimeoutStayCorrect drives many concurrent callers
// through one healthy client with a call timeout, so contended waits arm
// and re-arm pooled timers, and mixes in names that fail remotely. Every
// answer must match its own name, no call may time out, and the pooled
// states must come back clean.
func TestPooledCallsUnderTimeoutStayCorrect(t *testing.T) {
	w, tr, _ := exportedTree(t)
	want := map[string]core.Entity{}
	for i := 0; i < 8; i++ {
		raw := fmt.Sprintf("usr/lib/f%d", i)
		e, err := tr.Create(core.ParsePath(raw), raw)
		if err != nil {
			t.Fatal(err)
		}
		want[raw] = e
	}
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s, WithTimeout(5*time.Second))

	const callers, rounds = 8, 200
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				raw := fmt.Sprintf("usr/lib/f%d", (g+r)%8)
				if r%5 == 0 {
					if _, err := c.Resolve(core.ParsePath("usr/lib/missing")); !isRemoteErr(err) {
						errs <- fmt.Errorf("missing name: err = %v, want a remote error", err)
						return
					}
				}
				if r%3 == 0 {
					out, _, err := c.ResolveBatchRev([]core.Path{core.ParsePath(raw), core.ParsePath("usr/bin/ls")})
					if err != nil || len(out) != 2 || out[0].Entity != want[raw] {
						errs <- fmt.Errorf("batch [%s usr/bin/ls] = %v, %v", raw, out, err)
						return
					}
					continue
				}
				e, _, err := c.ResolveRev(core.ParsePath(raw))
				if err != nil || e != want[raw] {
					errs <- fmt.Errorf("%s = %v, %v; want %v", raw, e, err, want[raw])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := checkFreeList(t, c); n == 0 || n > callers {
		t.Fatalf("%d pooled call states after %d concurrent callers", n, callers)
	}
}

func isRemoteErr(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}
