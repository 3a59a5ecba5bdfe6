// Package nameserver provides a distributed name-resolution substrate: a
// per-machine server that resolves compound names in an exported context,
// speaking a tagged, multiplexed binary request/response protocol (wire.go
// declares it, codec.go encodes it) over any net.Conn (TCP loopback in the
// benchmarks, net.Pipe in unit tests).
//
// The paper's schemes assume that resolving a name bound on another machine
// involves the other machine; this package supplies that wire crossing so
// the remote-resolution cost and the effect of client-side caching (ablation
// A1) can be measured rather than assumed. Entities travel as (ID, Kind)
// pairs, valid in the shared simulation world.
package nameserver
