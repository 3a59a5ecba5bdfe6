// Nameservice: exports a naming tree over real TCP with the binary wire
// protocol, then demonstrates the coherence hazard of name caches — a
// plain cache serves a stale meaning after a rebinding, while the
// revision-tracked coherent cache converges after one round-trip.
package main

import (
	"fmt"
	"net"
	"os"

	"namecoherence/naming"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nameservice:", err)
		os.Exit(1)
	}
}

func run() error {
	w := naming.NewWorld()
	tr := naming.NewTree(w, "export")
	oldLs, err := tr.Create(naming.ParsePath("usr/bin/ls"), "v1")
	if err != nil {
		return err
	}
	if _, err := tr.Create(naming.ParsePath("etc/motd"), "hello"); err != nil {
		return err
	}

	server := naming.NewNameServer(w, tr.RootContext())
	watched := server.WatchExport(tr.Root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go server.Serve(ln)
	defer server.Close()
	fmt.Printf("name server on %s, watching %d directories\n", ln.Addr(), watched)

	plain, err := naming.DialNameServer("tcp", ln.Addr().String(),
		naming.WithResolveCache(16))
	if err != nil {
		return err
	}
	defer func() { _ = plain.Close() }()
	coherent, err := naming.DialNameServer("tcp", ln.Addr().String(),
		naming.WithCoherentResolveCache(16))
	if err != nil {
		return err
	}
	defer func() { _ = coherent.Close() }()

	p := naming.ParsePath("usr/bin/ls")
	warm := func(c *naming.NameClient, label string) error {
		e, err := c.Resolve(p)
		if err != nil {
			return err
		}
		fmt.Printf("  %-14s usr/bin/ls -> %v (%s)\n", label, e, w.Label(e))
		return nil
	}
	fmt.Println("\nboth clients resolve and cache usr/bin/ls:")
	if err := warm(plain, "plain cache:"); err != nil {
		return err
	}
	if err := warm(coherent, "coherent cache:"); err != nil {
		return err
	}

	// Rebind ls on the server side; the watched directory bumps the
	// revision automatically.
	binDir, err := tr.Lookup(naming.ParsePath("usr/bin"))
	if err != nil {
		return err
	}
	binCtx, _ := w.ContextOf(binDir)
	newLs := w.NewObject("ls-v2")
	binCtx.Bind("ls", newLs)
	fmt.Printf("\nserver rebinds usr/bin/ls: %v -> %v (revision now %d)\n",
		oldLs, newLs, server.Revision())

	// One unrelated round-trip lets the coherent client notice.
	if _, err := coherent.Resolve(naming.ParsePath("etc/motd")); err != nil {
		return err
	}
	if _, err := plain.Resolve(naming.ParsePath("etc/motd")); err != nil {
		return err
	}

	fmt.Println("\nafter one more round-trip each:")
	if err := warm(plain, "plain cache:"); err != nil {
		return err
	}
	if err := warm(coherent, "coherent cache:"); err != nil {
		return err
	}
	fmt.Println("\nthe plain cache still serves the stale entity; the coherent cache")
	fmt.Println("purged on the revision change and re-fetched the new meaning.")
	return nil
}
