// Package shardsafe machine-enforces the sharded kernel's two
// conservative-execution disciplines (DESIGN.md §13):
//
//   - lookahead: every Shard.Send must book its message at a time
//     provably ≥ now+lookahead. The analyzer accepts the uniform-latency
//     construction — an `at` argument that resolves (through local
//     single-assignment substitution) to Now()-derived time plus a
//     latency/lookahead-named term — and flags everything else, most
//     importantly literal times, which panic at run time only on the
//     executions that happen to cross a window boundary;
//   - window: inside an event handler (any func(sim.Scheduler)), the
//     Kernel's cross-shard surface (Shard, Fired, Pending,
//     CanceledRetained) is off limits — those aggregate or hand out
//     other shards' state, which is only quiescent at window barriers
//     (AtBarrier hooks) or between runs. Shard.Send is the one legal
//     cross-shard channel from inside an event.
//
// A site that is safe for a reason the analyzer cannot see (a test that
// asserts the lookahead panic, a literal time chosen against a literal
// window) carries //cellqos:allow shardsafe and a justification.
package shardsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"cellqos/internal/analysis"
	"cellqos/internal/analysis/flow"
)

// Analyzer enforces mailbox lookahead proofs and barrier-only access
// to cross-shard kernel state.
var Analyzer = &analysis.Analyzer{
	Name: "shardsafe",
	Doc: "require every shard mailbox Send to book at a provably conservative " +
		"time (Now() plus a latency/lookahead term) and forbid the Kernel's " +
		"cross-shard surface (Shard/Fired/Pending/CanceledRetained) inside " +
		"event handlers, where other shards are mid-window",
	Run: run,
}

const (
	shardPath = "internal/sim/shard"
	simPath   = "internal/sim"
)

// latencyName matches identifiers that carry a signaling-latency or
// lookahead quantity by naming convention.
var latencyName = regexp.MustCompile(`(?i)latency|lookahead|exchange|delay`)

// windowUnsafe are the Kernel methods that read or hand out other
// shards' state and are documented barrier-only.
var windowUnsafe = map[string]bool{
	"Shard": true, "Fired": true, "Pending": true, "CanceledRetained": true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var src map[types.Object][]ast.Expr // lazily built per function
	sources := func() map[types.Object][]ast.Expr {
		if src == nil {
			src = flow.Sources(pass.TypesInfo, fd)
		}
		return src
	}

	// eventDepth tracks how many enclosing func literals are event
	// handlers (func(sim.Scheduler)); the declaration itself counts.
	eventDepth := 0
	if isEventSig(pass, pass.TypesInfo.Defs[fd.Name]) {
		eventDepth = 1
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if litIsEvent(pass, n) {
				eventDepth++
				ast.Inspect(n.Body, walk)
				eventDepth--
				return false
			}
		case *ast.CallExpr:
			checkSend(pass, sources, n)
			if eventDepth > 0 {
				checkWindowRead(pass, n)
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// checkSend proves the `at` argument of a Shard.Send conservative.
func checkSend(pass *analysis.Pass, sources func() map[types.Object][]ast.Expr, call *ast.CallExpr) {
	selection, name, ok := flow.MethodCall(pass.TypesInfo, call)
	if !ok || name != "Send" || len(call.Args) < 2 {
		return
	}
	if !flow.ReceiverNamed(selection, shardPath, "Shard") {
		return
	}
	at := call.Args[1]
	if provenConservative(pass, sources(), at) {
		return
	}
	pass.Reportf(call.Pos(),
		"Send time %s is not provably now+lookahead: book messages at Now() plus a latency/lookahead term, or the send panics on executions that cross a window boundary",
		types.ExprString(at))
}

// provenConservative accepts now-derived + latency-like sums, after
// substituting single-assignment locals.
func provenConservative(pass *analysis.Pass, src map[types.Object][]ast.Expr, e ast.Expr) bool {
	bin, ok := ast.Unparen(flow.Resolve(src, pass.TypesInfo, e, 8)).(*ast.BinaryExpr)
	if !ok || bin.Op != token.ADD {
		return false
	}
	return (nowDerived(pass, src, bin.X) && latencyLike(pass, src, bin.Y)) ||
		(nowDerived(pass, src, bin.Y) && latencyLike(pass, src, bin.X))
}

// nowDerived recognizes a Now() read, possibly already offset by a
// latency term (now + exchange + latency associates left).
func nowDerived(pass *analysis.Pass, src map[types.Object][]ast.Expr, e ast.Expr) bool {
	switch e := ast.Unparen(flow.Resolve(src, pass.TypesInfo, e, 8)).(type) {
	case *ast.CallExpr:
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.SelectorExpr:
			return fun.Sel.Name == "Now"
		case *ast.Ident:
			return fun.Name == "Now"
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			return (nowDerived(pass, src, e.X) && latencyLike(pass, src, e.Y)) ||
				(nowDerived(pass, src, e.Y) && latencyLike(pass, src, e.X))
		}
	}
	return false
}

// latencyLike recognizes a latency/lookahead-named value, a Lookahead()
// call, or a sum/product of such terms with constants (2*L, L+slack is
// conservative as long as one factor is latency-like and nothing is
// subtracted).
func latencyLike(pass *analysis.Pass, src map[types.Object][]ast.Expr, e ast.Expr) bool {
	switch e := ast.Unparen(flow.Resolve(src, pass.TypesInfo, e, 8)).(type) {
	case *ast.Ident:
		return latencyName.MatchString(e.Name)
	case *ast.SelectorExpr:
		return latencyName.MatchString(e.Sel.Name)
	case *ast.CallExpr:
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.SelectorExpr:
			return fun.Sel.Name == "Lookahead" || latencyName.MatchString(fun.Sel.Name)
		case *ast.Ident:
			return fun.Name == "Lookahead" || latencyName.MatchString(fun.Name)
		}
	case *ast.BinaryExpr:
		if e.Op != token.ADD && e.Op != token.MUL {
			return false
		}
		lx := latencyLike(pass, src, e.X)
		ly := latencyLike(pass, src, e.Y)
		if !lx && !ly {
			return false
		}
		return (lx || isConst(pass, e.X)) && (ly || isConst(pass, e.Y))
	}
	return false
}

func isConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	return ok && tv.Value != nil
}

// checkWindowRead flags the Kernel's barrier-only surface inside an
// event handler.
func checkWindowRead(pass *analysis.Pass, call *ast.CallExpr) {
	selection, name, ok := flow.MethodCall(pass.TypesInfo, call)
	if !ok || !windowUnsafe[name] {
		return
	}
	if !flow.ReceiverNamed(selection, shardPath, "Kernel") {
		return
	}
	pass.Reportf(call.Pos(),
		"Kernel.%s inside an event handler: other shards are mid-window here — read cross-shard state from an AtBarrier hook or between runs, and cross-shard effects go through Shard.Send", name)
}

// isEventSig reports whether obj is a function taking exactly one
// sim.Scheduler parameter and returning nothing.
func isEventSig(pass *analysis.Pass, obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	return schedulerSig(fn.Type())
}

func litIsEvent(pass *analysis.Pass, lit *ast.FuncLit) bool {
	tv, ok := pass.TypesInfo.Types[ast.Expr(lit)]
	if !ok {
		return false
	}
	return schedulerSig(tv.Type)
}

func schedulerSig(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Results().Len() != 0 || sig.Params().Len() != 1 {
		return false
	}
	pt := sig.Params().At(0).Type()
	named, ok := pt.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Scheduler" && obj.Pkg() != nil && flow.PathMatches(obj.Pkg().Path(), simPath)
}
