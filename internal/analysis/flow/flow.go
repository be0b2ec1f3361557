// Package flow is the shared dataflow and callgraph helper layer under
// the cellqos-vet analyzers. The PR-5 suite grew five analyzers that
// each re-implemented the same ad-hoc walks — "find the declaration of
// this function", "what does this identifier hold", "is this selector
// time.Now" — with slightly different bugs. This package centralizes
// the three facilities every contract analyzer needs:
//
//   - a function index (declaration lookup, receiver-method tables,
//     static callee resolution, intra-package reachability), so checks
//     like "no wall clock anywhere on the decision path" follow calls
//     instead of inspecting one body;
//   - intra-procedural value tracking (Sources/Resolve), a deliberately
//     simple single-assignment substitution over go/types objects —
//     enough to prove facts like "this `at` argument is now+latency"
//     without an SSA package the hermetic build cannot import;
//   - selector classification (wall clock, global entropy, interface
//     lookup by package-path suffix), shared with nodeterm so the
//     entropy tables exist exactly once.
//
// Everything here is intra-package and intra-procedural by design: the
// analyzers trade whole-program precision for byte-stable, dependency-
// free checks that see one package at a time.
package flow

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"cellqos/internal/analysis"
)

// Index is the per-pass function table: every function and method
// declared in the package, addressable by its types.Func object.
type Index struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	order []*types.Func // source order, for deterministic iteration
}

// NewIndex builds the function index for one pass.
func NewIndex(pass *analysis.Pass) *Index {
	ix := &Index{pass: pass, decls: map[*types.Func]*ast.FuncDecl{}}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ix.decls[obj] = fd
			ix.order = append(ix.order, obj)
		}
	}
	return ix
}

// Decl returns the declaration of fn, or nil when fn is not declared in
// this package (imported, interface method, or synthetic).
func (ix *Index) Decl(fn *types.Func) *ast.FuncDecl { return ix.decls[fn] }

// MethodsOf returns the methods declared in this package whose receiver
// base type is named, keyed by method name.
func (ix *Index) MethodsOf(named *types.Named) map[string]*ast.FuncDecl {
	out := map[string]*ast.FuncDecl{}
	for _, obj := range ix.order {
		fd := ix.decls[obj]
		if fd.Recv == nil {
			continue
		}
		if ReceiverBase(obj) == named.Obj() {
			out[fd.Name.Name] = fd
		}
	}
	return out
}

// ReceiverBase returns the *types.TypeName of fn's receiver base type
// (through one pointer), or nil for plain functions.
func ReceiverBase(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

// Callee statically resolves the function or method a call invokes:
// a plain identifier, a package-qualified selector, or a method value
// selection. Calls through function-typed variables, interfaces with no
// static receiver, and built-ins resolve to nil.
func (ix *Index) Callee(call *ast.CallExpr) *types.Func {
	return Callee(ix.pass.TypesInfo, call)
}

// Callee is Index.Callee without an index: static callee resolution
// from type information alone.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// Reachable computes the set of package-local functions reachable from
// roots through static calls, expanding only into callees for which
// follow returns true (follow == nil follows every package-local
// callee). Roots are included. The result preserves discovery order —
// breadth-first from the roots in the order given — so analyzers that
// iterate it report deterministically.
func (ix *Index) Reachable(roots []*types.Func, follow func(*types.Func) bool) []*types.Func {
	seen := map[*types.Func]bool{}
	var order, frontier []*types.Func
	push := func(fn *types.Func) {
		if fn == nil || seen[fn] || ix.decls[fn] == nil {
			return
		}
		seen[fn] = true
		order = append(order, fn)
		frontier = append(frontier, fn)
	}
	for _, r := range roots {
		push(r)
	}
	for len(frontier) > 0 {
		fn := frontier[0]
		frontier = frontier[1:]
		ast.Inspect(ix.decls[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := ix.Callee(call)
			if callee == nil || ix.decls[callee] == nil {
				return true
			}
			if follow == nil || follow(callee) {
				push(callee)
			}
			return true
		})
	}
	return order
}

// ---------------------------------------------------------------------
// Intra-procedural value tracking.

// Sources maps every object assigned within root (a function body or
// any subtree) to the expressions assigned to it, in source order.
// Tuple assignments from a single call (v, ok := f()) record the call
// for every left-hand side, so callers can at least recognize the
// producing call; positional multi-assign (a, b = x, y) records each
// side's own expression.
func Sources(info *types.Info, root ast.Node) map[types.Object][]ast.Expr {
	src := map[types.Object][]ast.Expr{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		src[obj] = append(src[obj], rhs)
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch {
			case len(n.Lhs) == len(n.Rhs):
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			case len(n.Rhs) == 1:
				for _, lhs := range n.Lhs {
					record(lhs, n.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			} else if len(n.Values) == 1 {
				for _, name := range n.Names {
					record(name, n.Values[0])
				}
			}
		}
		return true
	})
	return src
}

// Resolve follows e through single-assignment locals: an identifier
// with exactly one recorded source resolves to that source, repeatedly,
// up to depth substitutions. Identifiers with zero (parameters, package
// vars) or multiple sources resolve to themselves — the value is not
// provably any one expression.
func Resolve(src map[types.Object][]ast.Expr, info *types.Info, e ast.Expr, depth int) ast.Expr {
	for range depth {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return e
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		exprs := src[obj]
		if obj == nil || len(exprs) != 1 || exprs[0] == e {
			return e
		}
		e = exprs[0]
	}
	return e
}

// ---------------------------------------------------------------------
// Type and selector classification.

// PathMatches reports whether a package path is, or ends with, the
// given suffix ("internal/core" matches both "cellqos/internal/core"
// and an analysistest fixture re-rooted at the same suffix).
func PathMatches(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// LookupInterface finds the named interface type in the pass's own
// package or any direct import whose path matches the suffix. Returns
// nil when no such interface is visible — the caller's check simply
// does not apply to this package.
func LookupInterface(pass *analysis.Pass, pathSuffix, name string) *types.Interface {
	candidates := []*types.Package{pass.Pkg}
	candidates = append(candidates, pass.Pkg.Imports()...)
	for _, pkg := range candidates {
		if pkg == nil || !PathMatches(pkg.Path(), pathSuffix) {
			continue
		}
		obj, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
			return iface
		}
	}
	return nil
}

// Implementations returns the package-level named types declared in the
// pass's package that implement iface (directly or through a pointer
// receiver), in declaration-name order.
func Implementations(pass *analysis.Pass, iface *types.Interface) []*types.Named {
	var out []*types.Named
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() { // Names() is sorted
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			out = append(out, named)
		}
	}
	return out
}

// Implements reports whether t or *t satisfies iface.
func Implements(t types.Type, iface *types.Interface) bool {
	if iface == nil {
		return false
	}
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// PkgSelector decomposes a package-qualified selector (pkg.Name) into
// the imported package path and selected name. Field and method
// selections on values report ok=false.
func PkgSelector(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pkgName, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pkgName.Imported().Path(), sel.Sel.Name, true
}

// WallClock classifies a selector as a direct wall-clock read:
// time.Now or time.Since. The returned name is the dotted form for
// diagnostics.
func WallClock(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	path, name, ok := PkgSelector(info, sel)
	if !ok || path != "time" {
		return "", false
	}
	if name == "Now" || name == "Since" {
		return "time." + name, true
	}
	return "", false
}

// globalRandV2 lists the math/rand/v2 top-level functions that draw
// from the shared, randomly-seeded global source. Seeded generators
// (rand.New(rand.NewPCG(seed, stream))) are the approved idiom and are
// not classified.
var globalRandV2 = map[string]bool{
	"Int": true, "Int32": true, "Int64": true,
	"IntN": true, "Int32N": true, "Int64N": true, "N": true,
	"Uint": true, "Uint32": true, "Uint64": true,
	"UintN": true, "Uint32N": true, "Uint64N": true,
	"Float32": true, "Float64": true,
	"NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true,
}

// GlobalRand classifies a selector as ambient entropy: any math/rand
// (v1) package-level reference, or a math/rand/v2 function on the
// process-global source. The returned kind distinguishes the two for
// diagnostics: "v1" or the v2 function name.
func GlobalRand(info *types.Info, sel *ast.SelectorExpr) (kind string, ok bool) {
	path, name, selOK := PkgSelector(info, sel)
	if !selOK {
		return "", false
	}
	switch path {
	case "math/rand":
		return "v1", true
	case "math/rand/v2":
		if globalRandV2[name] {
			return name, true
		}
	}
	return "", false
}

// MethodCall returns the selection of a method-value call (x.M(...))
// along with the method name; ok=false for anything else.
func MethodCall(info *types.Info, call *ast.CallExpr) (*types.Selection, string, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	return selection, sel.Sel.Name, true
}

// ReceiverNamed reports whether a method selection's receiver base type
// is the named type in a package whose path matches the suffix.
func ReceiverNamed(selection *types.Selection, pathSuffix, typeName string) bool {
	t := selection.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && PathMatches(obj.Pkg().Path(), pathSuffix)
}

// ConstStrings collects every string that could name what an expression
// refers to: string literal values, constant string values, identifier
// and selector names, and called method names — the raw material for
// "does this path expression mention a checkpoint file" style checks.
// All strings are lower-cased.
func ConstStrings(info *types.Info, e ast.Expr) []string {
	var out []string
	add := func(s string) {
		if s != "" {
			out = append(out, strings.ToLower(s))
		}
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			add(n.Name)
			if tv, ok := info.Types[ast.Expr(n)]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				add(constant.StringVal(tv.Value))
			}
		case *ast.SelectorExpr:
			add(n.Sel.Name)
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				if v, err := strconv.Unquote(n.Value); err == nil {
					add(v)
				}
			}
		}
		return true
	})
	return out
}
