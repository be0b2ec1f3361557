// Package deprecated machine-checks scheduled API deletions. A
// deprecated wrapper in this repo survives exactly one PR for
// migration (DESIGN.md §11's AddConnection collapse set the
// precedent); this analyzer makes the grace period enforceable: every
// caller shows up as a vet diagnostic, so the deleting PR cannot miss
// a straggler and a new caller cannot sneak in during the grace
// window.
//
// Two detection modes compose:
//
//   - a registry of known cross-package deprecations (kept here, next
//     to the deletion schedule), matched by package path + receiver +
//     method name, which works even though gc export data carries no
//     doc comments;
//   - a generic same-package mode that reads "Deprecated:" doc
//     comments off any function or method declared in the package
//     under analysis.
package deprecated

import (
	"go/ast"
	"go/types"
	"strings"

	"cellqos/internal/analysis"
)

// Analyzer flags calls to deprecated cellqos API.
var Analyzer = &analysis.Analyzer{
	Name: "deprecated",
	Doc: "flag callers of deprecated cellqos API so scheduled deletions are " +
		"machine-checked; the registry lists cross-package deprecations, and " +
		"same-package \"Deprecated:\" doc comments are honored generically",
	Run: run,
}

// registryEntry names one deprecated function or method and its
// replacement.
type registryEntry struct {
	pkgPath  string // declaring package
	receiver string // named receiver type ("" for a plain function)
	name     string
	advice   string
}

// registry is the deletion schedule. Entries stay (guarded by the
// analyzer's own fixtures) even after the symbol is deleted: a revert
// or a stale branch reintroducing a caller still gets flagged while
// the build error is being "fixed" the wrong way.
var registry = []registryEntry{
	{
		pkgPath: "cellqos/internal/core", receiver: "Engine", name: "AddConnectionWithHint",
		advice: "use AddConnection(id, ConnSpec{Min: bw, Prev: prev, Hint: hint}, now)",
	},
	{
		pkgPath: "cellqos/internal/core", receiver: "Engine", name: "AddElasticConnection",
		advice: "use AddConnection(id, ConnSpec{Min: min, Max: max, Prev: prev}, now)",
	},
}

func run(pass *analysis.Pass) (any, error) {
	local := localDeprecations(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee types.Object
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.SelectorExpr:
				callee = pass.TypesInfo.Uses[fun.Sel]
			case *ast.Ident:
				callee = pass.TypesInfo.Uses[fun]
			}
			fn, ok := callee.(*types.Func)
			if !ok {
				return true
			}
			if e := lookupRegistry(fn); e != nil {
				pass.Reportf(call.Pos(), "call to deprecated %s.%s: %s", e.receiver, e.name, e.advice)
				return true
			}
			if note, ok := local[fn]; ok {
				pass.Reportf(call.Pos(), "call to deprecated %s: %s", fn.Name(), note)
			}
			return true
		})
	}
	return nil, nil
}

// lookupRegistry matches a callee against the deletion schedule.
func lookupRegistry(fn *types.Func) *registryEntry {
	pkg := fn.Pkg()
	if pkg == nil {
		return nil
	}
	recv := receiverTypeName(fn)
	for i := range registry {
		e := &registry[i]
		if e.pkgPath == pkg.Path() && e.receiver == recv && e.name == fn.Name() {
			return e
		}
	}
	return nil
}

// receiverTypeName returns the named type of fn's receiver, "" for a
// plain function.
func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// localDeprecations maps functions declared in this package whose doc
// comment carries a "Deprecated:" note to the first line of that note.
func localDeprecations(pass *analysis.Pass) map[*types.Func]string {
	out := map[*types.Func]string{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			note, ok := deprecationNote(fd.Doc.Text())
			if !ok {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				out[fn] = note
			}
		}
	}
	return out
}

// deprecationNote extracts a deprecation note from a doc comment. Per
// the standard Go convention the note is a line (conventionally a
// paragraph) beginning "Deprecated:" — a mid-sentence mention does not
// deprecate anything.
func deprecationNote(doc string) (string, bool) {
	for _, line := range strings.Split(doc, "\n") {
		if note, ok := strings.CutPrefix(strings.TrimSpace(line), "Deprecated:"); ok {
			return strings.TrimSpace(note), true
		}
	}
	return "", false
}
