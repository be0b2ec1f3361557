// Package policycontract machine-enforces the DESIGN.md §15
// AdmissionPolicy contract on every implementation the package under
// analysis declares:
//
//   - cellstate: a policy whose methods mutate receiver fields carries
//     per-cell state and must implement core.CellStater, otherwise the
//     config's one policy value is shared by every cell and run;
//   - shallowclone: CloneCellState must build a fresh instance (a
//     composite literal of the policy type) and never return the
//     receiver — a shallow hand-back aliases the prototype's state;
//   - entropy: no wall clock (time.Now/Since) or global RNG inside the
//     decision path — policies must be deterministic given the seeded
//     streams;
//   - maprange: no ranging over a map inside the decision path — Go's
//     random iteration order feeding a float accumulation breaks
//     byte-determinism.
//
// The contract's degraded-peer clause — every Peers/PeerValue read
// consumes its ok bool — is not checked here: the peervalue analyzer
// enforces it module-wide, decision paths included.
//
// The analyzer activates only where core.AdmissionPolicy is visible
// (the package itself or a direct importer); everywhere else it is
// silent.
package policycontract

import (
	"go/ast"
	"go/token"
	"go/types"

	"cellqos/internal/analysis"
	"cellqos/internal/analysis/flow"
)

// Analyzer enforces the AdmissionPolicy implementation contract.
var Analyzer = &analysis.Analyzer{
	Name: "policycontract",
	Doc: "enforce the DESIGN.md §15 AdmissionPolicy contract: per-cell mutable " +
		"state requires CellStater with a deep CloneCellState, and decision " +
		"methods stay free of wall clock, global rand, and map ranging",
	Run: run,
}

const corePath = "internal/core"

func run(pass *analysis.Pass) (any, error) {
	iface := flow.LookupInterface(pass, corePath, "AdmissionPolicy")
	if iface == nil {
		return nil, nil
	}
	ix := flow.NewIndex(pass)
	stater := flow.LookupInterface(pass, corePath, "CellStater")

	seenFn := map[*types.Func]bool{} // shared decision helpers scan once
	for _, impl := range flow.Implementations(pass, iface) {
		methods := ix.MethodsOf(impl)
		checkCellState(pass, impl, methods, stater)
		checkDecisionPath(pass, ix, impl, methods, seenFn)
	}
	return nil, nil
}

// ---------------------------------------------------------------------
// cellstate + shallowclone

// checkCellState requires CellStater on mutating policies and audits
// CloneCellState bodies for the deep-copy shape.
func checkCellState(pass *analysis.Pass, impl *types.Named, methods map[string]*ast.FuncDecl, stater *types.Interface) {
	node, method := firstReceiverMutation(pass, methods)
	isStater := stater != nil && flow.Implements(impl, stater)
	if node != nil && !isStater {
		pass.Reportf(node.Pos(),
			"policy %s mutates receiver state in %s but does not implement CellStater: without CloneCellState the config's one policy value is shared by every cell (DESIGN.md §15)",
			impl.Obj().Name(), method)
	}
	if !isStater {
		return
	}
	clone := methods["CloneCellState"]
	if clone == nil || clone.Body == nil {
		return // inherited from an embedded type; audited where declared
	}
	fresh := false
	ast.Inspect(clone.Body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[ast.Expr(cl)]; ok && namedBase(tv.Type) == impl.Obj() {
			fresh = true
		}
		return true
	})
	recv := receiverObject(pass, clone)
	ast.Inspect(clone.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if id, ok := ast.Unparen(res).(*ast.Ident); ok && recv != nil && pass.TypesInfo.Uses[id] == recv {
				pass.Reportf(ret.Pos(),
					"CloneCellState of %s returns its receiver: the clone aliases the prototype's mutable state — build a fresh %s literal instead",
					impl.Obj().Name(), impl.Obj().Name())
			}
		}
		return true
	})
	if !fresh {
		pass.Reportf(clone.Name.Pos(),
			"CloneCellState of %s never constructs a fresh %s: a deep per-cell clone must build a new composite literal copying the knobs and resetting mutable fields",
			impl.Obj().Name(), impl.Obj().Name())
	}
}

// firstReceiverMutation finds the earliest assignment (plain, compound,
// or ++/--) to a field of the method receiver across the policy's
// methods, excluding CloneCellState itself (initializing the clone is
// the method's job).
func firstReceiverMutation(pass *analysis.Pass, methods map[string]*ast.FuncDecl) (ast.Node, string) {
	var node ast.Node
	var method string
	consider := func(n ast.Node, name string) {
		if n != nil && (node == nil || n.Pos() < node.Pos()) {
			node, method = n, name
		}
	}
	for name, fd := range methods {
		if name == "CloneCellState" || fd.Body == nil {
			continue
		}
		recv := receiverObject(pass, fd)
		if recv == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range n.Lhs {
					if selectsReceiver(pass, lhs, recv) {
						consider(n, name)
					}
				}
			case *ast.IncDecStmt:
				if selectsReceiver(pass, n.X, recv) {
					consider(n, name)
				}
			}
			return true
		})
	}
	return node, method
}

func receiverObject(pass *analysis.Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
}

// selectsReceiver reports whether e is a (possibly nested) selector
// rooted at the receiver object: g.guard, t.state.runs, ...
func selectsReceiver(pass *analysis.Pass, e ast.Expr, recv types.Object) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return pass.TypesInfo.Uses[x] == recv
		default:
			return false
		}
	}
}

func namedBase(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// ---------------------------------------------------------------------
// entropy + maprange over the decision path

// checkDecisionPath scans DecideNew and DecideHandOff plus every
// package-local helper they reach — plain functions, or methods on the
// policy type itself (engine/context methods are the framework's
// responsibility, not the policy's).
func checkDecisionPath(pass *analysis.Pass, ix *flow.Index, impl *types.Named, methods map[string]*ast.FuncDecl, seenFn map[*types.Func]bool) {
	var roots []*types.Func
	for _, name := range []string{"DecideNew", "DecideHandOff"} {
		if fd := methods[name]; fd != nil {
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				roots = append(roots, fn)
			}
		}
	}
	follow := func(fn *types.Func) bool {
		base := flow.ReceiverBase(fn)
		return base == nil || base == impl.Obj()
	}
	for _, fn := range ix.Reachable(roots, follow) {
		if seenFn[fn] {
			continue
		}
		seenFn[fn] = true
		scanDecisionFunc(pass, ix.Decl(fn), impl.Obj().Name())
	}
}

func scanDecisionFunc(pass *analysis.Pass, fd *ast.FuncDecl, policy string) {
	if fd == nil || fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if name, ok := flow.WallClock(pass.TypesInfo, n); ok {
				pass.Reportf(n.Pos(),
					"%s on the decision path of policy %s: decisions must depend only on simulation state, never the wall clock", name, policy)
			}
			if kind, ok := flow.GlobalRand(pass.TypesInfo, n); ok {
				what := "global math/rand"
				if kind != "v1" {
					what = "global rand." + kind
				}
				pass.Reportf(n.Pos(),
					"%s on the decision path of policy %s: draw from the run's seeded PCG streams, never ambient entropy", what, policy)
			}
		case *ast.RangeStmt:
			if _, ok := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Map); ok {
				pass.Reportf(n.Pos(),
					"map range on the decision path of policy %s: iteration order is randomized and poisons byte-determinism — iterate sorted keys", policy)
			}
		}
		return true
	})
}
