// Package conndeadline enforces the transport-deadline invariant of the
// fault-tolerant cluster (DESIGN §3a): inside internal/cluster and
// internal/nameserver, every net.Conn read/write — including those that
// carry the wire protocol's frames — must be preceded by a
// SetDeadline/SetReadDeadline/SetWriteDeadline call, and raw net.Dial is
// forbidden in favor of net.DialTimeout (or DialContext). An unbounded
// round-trip against a hung replica turns one wedged server into a wedged
// client; the failover and circuit-breaker logic only runs when I/O fails
// in bounded time.
//
// v2 is call-graph aware, using the interprocedural facts layer:
//
//   - A deadline set in a caller satisfies I/O in a callee: an unexported
//     function whose every same-package call site is deadline-guarded (and
//     which is never used as a function value) is exonerated — its own
//     unguarded I/O is the callers' obligation, and they have met it.
//   - The obligation flows the other way too: calling a function whose
//     exported UnguardedIO fact is set, without a preceding deadline, is
//     reported at the call site — across package boundaries, via facts.
//   - Idle-loop reads are exempt: a decode/read in a `for {}` loop of a
//     method whose owner's Close closes the conn (the server's idle
//     accept-and-wait pattern) blocks on purpose; Close unhangs it.
package conndeadline

import (
	"go/ast"
	"go/types"
	"strings"

	"namecoherence/internal/analysis"
)

// Scope limits the analyzer to packages whose import path contains one of
// these substrings. Deadlines are a transport concern; in-memory packages
// are exempt.
var Scope = []string{"cluster", "nameserver"}

// Analyzer is the conndeadline analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "conndeadline",
	Doc:  "requires a SetDeadline before net.Conn/gob wire I/O (caller deadlines satisfy callees) and forbids raw net.Dial in transport packages",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, ff := range pass.Facts.Own {
		for _, ev := range ff.Events {
			if ev.Callee != nil {
				pass.Reportf(ev.Pos,
					"call to %s, which performs wire I/O without its own deadline, must follow a SetDeadline in %s",
					calleeLabel(pass, ev.Callee), ff.Decl.Name.Name)
				continue
			}
			pass.Reportf(ev.Pos,
				"%s without a preceding SetDeadline in %s; unbounded wire I/O defeats failover",
				ev.Desc, ff.Decl.Name.Name)
		}
	}
	// Raw net.Dial stays a structural check: it needs no dataflow.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.CalleeFunc(pass.TypesInfo, call)
			if callee == nil || callee.Name() != "Dial" {
				return true
			}
			recv := callee.Type().(*types.Signature).Recv()
			if recv == nil && callee.Pkg() != nil && callee.Pkg().Path() == "net" {
				pass.Reportf(call.Pos(),
					"raw net.Dial is unbounded; use net.DialTimeout so a dead replica costs one timeout")
			}
			return true
		})
	}
	return nil, nil
}

func inScope(path string) bool {
	for _, s := range Scope {
		if strings.Contains(path, s) {
			return true
		}
	}
	return false
}

// calleeLabel renders a callee for a diagnostic: pkg-qualified for
// cross-package targets, bare for local ones.
func calleeLabel(pass *analysis.Pass, fn *types.Func) string {
	if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
