// Package peervalue machine-enforces the core.Peers degraded-value
// contract (DESIGN.md §10): every Peers query reports ok=false when the
// neighbor's state could not be fetched, and the engine must fail
// closed on it — never assume silence means "contributes nothing" or
// "infinitely healthy". PR 3 deleted the old +Inf/MaxInt32 "no answer"
// sentinels in favor of the ok bool plus the core.PeerValue validator;
// this analyzer flags both ways of regressing: discarding the ok result
// — of a Peers query or of core.PeerValue itself — and resurrecting a
// comparison against the deleted sentinels. It runs module-wide, so the
// one rule covers the engine's own reads, the Peers implementations and
// every AdmissionPolicy's decision path (the DESIGN.md §15 degraded-peer
// obligation).
package peervalue

import (
	"go/ast"
	"go/token"
	"go/types"

	"cellqos/internal/analysis"
	"cellqos/internal/analysis/flow"
)

// Analyzer reports Peers and PeerValue results used without their ok
// bool and comparisons against the deleted +Inf/MaxInt32 sentinels.
var Analyzer = &analysis.Analyzer{
	Name: "peervalue",
	Doc: "flag core.Peers and core.PeerValue results whose ok bool is " +
		"discarded (branch on ok) and equality comparisons against the " +
		"deleted +Inf/MaxInt32 unreachable-neighbor sentinels",
	Run: run,
}

// peersMethods are the core.Peers interface methods. Matching is by
// name plus trailing-bool signature rather than by interface identity,
// so the check also covers the concrete implementations
// (cellnet.localPeers, signaling.remotePeers) and test doubles.
var peersMethods = map[string]bool{
	"OutgoingReservation":  true,
	"Snapshot":             true,
	"RecomputeReservation": true,
	"MaxSojourn":           true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, ok := peerOKCall(pass, call); ok {
						pass.Reportf(call.Pos(),
							"result of %s discarded: a degraded neighbor reports ok=false and the caller must fail closed (wrap in core.PeerValue or branch on ok)", name)
					}
				}
			case *ast.AssignStmt:
				checkAssign(pass, n)
			case *ast.BinaryExpr:
				checkSentinel(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkAssign flags `v, _ := peers.X(...)` and
// `v, _ := core.PeerValue(...)` — a blanked ok bool.
func checkAssign(pass *analysis.Pass, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := peerOKCall(pass, call)
	if !ok {
		return
	}
	last, ok := assign.Lhs[len(assign.Lhs)-1].(*ast.Ident)
	if !ok || last.Name != "_" {
		return
	}
	pass.Reportf(assign.Pos(),
		"ok result of %s blanked: a degraded neighbor reports ok=false and the caller must fail closed (wrap in core.PeerValue or branch on ok)", name)
}

// peerOKCall classifies a call whose trailing bool carries the
// degraded-peer contract: a Peers-shaped method (one of the interface's
// method names), or the function core.PeerValue, whose ok is the same
// signal after validation.
func peerOKCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := flow.Callee(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		if !peersMethods[fn.Name()] {
			return "", false
		}
	} else if fn.Name() != "PeerValue" || fn.Pkg() == nil || !flow.PathMatches(fn.Pkg().Path(), "internal/core") {
		return "", false
	}
	res := sig.Results()
	if res.Len() < 2 {
		return "", false
	}
	b, ok := res.At(res.Len() - 1).Type().(*types.Basic)
	return fn.Name(), ok && b.Kind() == types.Bool
}

// checkSentinel flags ==/!= comparisons against math.Inf(...) or
// math.MaxInt32 — the deleted "unreachable neighbor" encodings. Such a
// test can never fire again (the APIs return ok=false instead) and its
// presence means degraded-state handling is being rebuilt on sentinels.
func checkSentinel(pass *analysis.Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	for _, side := range [2]ast.Expr{bin.X, bin.Y} {
		switch kind := sentinelKind(pass, side); kind {
		case "":
		default:
			pass.Reportf(bin.Pos(),
				"comparison against the deleted %s unreachable-neighbor sentinel: Peers methods report ok=false instead; branch on ok / core.PeerValue", kind)
			return
		}
	}
}

// sentinelKind classifies an expression as one of the deleted
// sentinels, looking through a numeric conversion like
// float64(math.MaxInt32).
func sentinelKind(pass *analysis.Pass, e ast.Expr) string {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isMathPkg(pass, sel.X) && sel.Sel.Name == "Inf" {
			return "math.Inf"
		}
		// A conversion: recurse into its operand.
		if len(call.Args) == 1 {
			if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
				return sentinelKind(pass, call.Args[0])
			}
		}
		return ""
	}
	if sel, ok := e.(*ast.SelectorExpr); ok && isMathPkg(pass, sel.X) && sel.Sel.Name == "MaxInt32" {
		return "math.MaxInt32"
	}
	return ""
}

func isMathPkg(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == "math"
}
