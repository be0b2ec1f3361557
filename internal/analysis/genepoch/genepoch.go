// Package genepoch guards the generation-epoch discipline of the Eq. 5
// fast path (DESIGN.md §11). Estimator-derived quantities
// (SurvivorWeight, HandOffWeight, selected-sample views, ...) are only
// valid for the estimator generation they were computed at: Record,
// ReadFrom, eviction sweeps and lazy rebuilds all bump Generation(),
// and any state cached across such a bump silently drifts from the
// from-scratch Eq. 5 walk — the exact bug class the eq5 cache's
// matches() check exists to prevent.
//
// The analyzer is a function-local, statement-order heuristic: inside
// one function body, a value derived from an estimator query, followed
// by a generation-bumping mutation, followed by a read of the stale
// value with no interleaved Generation() comparison, is flagged.
// Cross-function caching (struct fields) is covered at runtime by
// audit.Checker.Eq5Cache; this analyzer catches the local form at vet
// time. Test files are skipped: before/after-mutation comparisons are
// the legitimate idiom of the estimator's own tests.
package genepoch

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"cellqos/internal/analysis"
)

// Analyzer reports estimator-derived values read across a
// generation-bumping call without a Generation() check.
var Analyzer = &analysis.Analyzer{
	Name: "genepoch",
	Doc: "flag estimator-derived state cached across a Record/ReadFrom/sweep " +
		"call and read without an interleaved Generation() comparison",
	Run: run,
}

// derivedMethods produce generation-scoped values.
// AppendSojournBreakpoints feeds the materialized Eq. 5 view's
// staleness guards (DESIGN.md §14): the breakpoint tables it returns
// are a pure function of the current selection and die with it.
var derivedMethods = map[string]bool{
	"SurvivorWeight": true, "HandOffWeight": true, "HandOffProb": true,
	"SojournProb": true, "Selected": true, "SelectedCount": true,
	"MaxSojourn": true, "AppendSojournBreakpoints": true,
}

// mutatorMethods bump the generation epoch. EnsureCurrent belongs here
// even though it exists to *pin* the epoch: forcing every lazy
// selection current at a timestamp performs exactly the rebuilds that
// would otherwise fire mid-query, so any value derived before the call
// may be dead after it — the returned generation is for comparing
// against a recorded epoch, not a license to keep older state.
var mutatorMethods = map[string]bool{
	"Record": true, "ReadFrom": true, "SweepAt": true, "EvictBefore": true,
	"EnsureCurrent": true, "Reset": true,
}

// estimatorReceiver reports whether the method's receiver is an
// estimation type from the predict package (or a fixture standing in
// for it — matching is by package-path suffix so analysistest stubs
// under testdata/src/cellqos/internal/predict participate).
func estimatorReceiver(sel *types.Selection) bool {
	t := sel.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	if name := obj.Name(); name != "Estimator" && name != "PatternSet" {
		return false
	}
	path := obj.Pkg().Path()
	return path == "predict" || strings.HasSuffix(path, "/predict")
}

// event is one ordered occurrence inside a function body.
type event struct {
	pos  int // file offset order within the body
	kind int
	obj  types.Object // the cached variable (define/use events)
	node ast.Node
	name string // method name, for the diagnostic
}

const (
	evDefine = iota // var := est.Derived(...)
	evMutate        // est.Record(...) etc.
	evCheck         // est.Generation() observed
	evUse           // read of a cached var
)

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		if fname := pass.Fset.Position(file.Pos()).Filename; strings.HasSuffix(fname, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil, nil
}

// estimatorCall classifies a call as derived/mutator/check on an
// estimation type; returns the method name and kind, or ok=false.
func estimatorCall(pass *analysis.Pass, call *ast.CallExpr) (name string, kind int, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal || !estimatorReceiver(selection) {
		return "", 0, false
	}
	n := sel.Sel.Name
	switch {
	case derivedMethods[n]:
		return n, evDefine, true
	case mutatorMethods[n]:
		return n, evMutate, true
	case n == "Generation":
		return n, evCheck, true
	}
	return "", 0, false
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var events []event
	derivedVars := map[types.Object]string{} // cached var → deriving method

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// var := est.Derived(...) defines cached state.
			if len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
					if m, kind, ok := estimatorCall(pass, call); ok && kind == evDefine {
						for _, lhs := range n.Lhs {
							id, ok := lhs.(*ast.Ident)
							if !ok || id.Name == "_" {
								continue
							}
							obj := pass.TypesInfo.Defs[id]
							if obj == nil {
								obj = pass.TypesInfo.Uses[id]
							}
							if obj == nil {
								continue
							}
							derivedVars[obj] = m
							events = append(events, event{pos: int(n.Pos()), kind: evDefine, obj: obj, node: n, name: m})
						}
					}
				}
			}
		case *ast.CallExpr:
			if m, kind, ok := estimatorCall(pass, n); ok && kind != evDefine {
				events = append(events, event{pos: int(n.Pos()), kind: kind, node: n, name: m})
			}
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[n]; obj != nil {
				if _, cached := derivedVars[obj]; cached {
					events = append(events, event{pos: int(n.Pos()), kind: evUse, obj: obj, node: n})
				}
			}
		}
		return true
	})

	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	// Linear scan: a use of a cached var after a mutation, with no
	// Generation() observation in between, is a stale read.
	defined := map[types.Object]struct {
		method  string
		atOrder int
	}{}
	lastMutate := -1       // index into events of the latest mutation
	lastMutateName := ""   // its method name
	lastCheckAfter := true // a Generation() was seen since the last mutation
	reported := map[types.Object]bool{}
	for i, ev := range events {
		switch ev.kind {
		case evDefine:
			defined[ev.obj] = struct {
				method  string
				atOrder int
			}{derivedVars[ev.obj], i}
		case evMutate:
			lastMutate = i
			lastMutateName = ev.name
			lastCheckAfter = false
		case evCheck:
			lastCheckAfter = true
		case evUse:
			d, ok := defined[ev.obj]
			if !ok || lastMutate < 0 || lastCheckAfter || reported[ev.obj] {
				continue
			}
			if d.atOrder > lastMutate {
				continue // re-derived after the mutation: fresh
			}
			reported[ev.obj] = true
			pass.Reportf(ev.node.Pos(),
				"%s (from %s) is read after %s bumped the estimator generation: re-derive it or gate the cached value on a Generation() comparison", ev.obj.Name(), d.method, lastMutateName)
		}
	}
}
