// Package unreached keeps the production surface of the module's
// internal/ packages to what production code uses. internal/ is a
// closed world, so an exported function or method that no non-test
// file references is code every reader pays for and no caller needs —
// the exported half of what staticcheck's U1000 does for unexported
// code.
//
// A reference is a use in a non-test file of any package of the run or
// of a module nested in it (a directory below the module root with its
// own go.mod, such as bench/, loaded with analysis.Load); a function's
// uses of itself do not count. Two rules stand in for a call graph: a
// method is reached when its receiver type implements an interface,
// declared in a non-test file of those modules or in a package they
// import, that has a method of the same name; and a package that no
// non-test file imports is test support and exempt. Functions are
// keyed by package path, receiver and name, because every package is
// typechecked on its own. The verdict needs every caller in view, so
// the analyzer runs once per run (analysis.Analyzer.RunModule), and a
// sweep narrower than the module sees fewer callers.
//
// A finding is answered by deleting the function, by moving it into a
// _test.go file of its package, or — when another package's test needs
// it — by a //cellqos:allow unreached directive naming that test.
package unreached

import (
	"go/ast"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"cellqos/internal/analysis"
)

// Analyzer is the module-level unreached check.
var Analyzer = &analysis.Analyzer{
	Name: "unreached",
	Doc: "flag exported functions and methods of internal/ packages that no " +
		"non-test file of the module or of a nested module references",
	RunModule: run,
}

// key identifies a function across separately typechecked packages.
type key struct{ pkg, recv, name string }

func keyOf(fn *types.Func) key {
	fn = fn.Origin()
	k := key{recv: recvName(fn), name: fn.Name()}
	if fn.Pkg() != nil { // nil for error.Error
		k.pkg = fn.Pkg().Path()
	}
	return k
}

// recvName is the name of a method's receiver type; "" for a function.
func recvName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func run(pass *analysis.ModulePass) error {
	type candidate struct {
		pkg  *analysis.Package
		name *ast.Ident
		fn   *types.Func
	}
	var cands []candidate
	for _, pkg := range pass.Pkgs {
		if !strings.HasPrefix(pkg.Path, "internal/") && !strings.Contains(pkg.Path, "/internal/") {
			continue
		}
		for _, f := range nonTestFiles(pkg) {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					cands = append(cands, candidate{pkg, fd.Name, pkg.TypesInfo.Defs[fd.Name].(*types.Func)})
				}
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}

	pkgs := pass.Pkgs
	if root := pkgs[0].ModuleDir; root != "" {
		nested, err := nestedModules(root)
		if err != nil {
			return err
		}
		for _, dir := range nested {
			more, err := analysis.Load(dir, "./...")
			if err != nil {
				return err
			}
			pkgs = append(pkgs, more...)
		}
	}

	reached := map[key]bool{}
	imported := map[string]bool{}
	ifaces := map[string][]map[string]string{} // method name → method sets of the interfaces declaring it
	addIface := func(it *types.Interface) {
		sigs := methodSigs(it)
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], sigs)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	scanned := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		for _, f := range nonTestFiles(pkg) {
			for _, imp := range f.Imports {
				imported[strings.Trim(imp.Path.Value, `"`)] = true
			}
			for _, d := range f.Decls {
				var self key
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok { // not for func _
						self = keyOf(fn)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := pkg.TypesInfo.Uses[n].(*types.Func); ok && keyOf(fn) != self {
							reached[keyOf(fn)] = true
						}
					case *ast.InterfaceType:
						addIface(pkg.TypesInfo.TypeOf(n).(*types.Interface))
					}
					return true
				})
			}
		}
		for _, imp := range pkg.Types.Imports() {
			if scanned[imp] {
				continue
			}
			scanned[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						addIface(it)
					}
				}
			}
		}
	}

	for _, c := range cands {
		if !imported[c.pkg.Path] || reached[keyOf(c.fn)] || implementsAny(c.fn, ifaces[c.fn.Name()]) {
			continue
		}
		what := "function " + c.fn.Name()
		if r := recvName(c.fn); r != "" {
			what = "method " + r + "." + c.fn.Name()
		}
		pass.Report(c.pkg, analysis.Diagnostic{
			Pos: c.name.Pos(),
			Message: "exported " + what + " is referenced by no non-test file: delete it, " +
				"move it into a _test.go file, or name the other package's test that needs it " +
				"in a //cellqos:allow unreached directive",
		})
	}
	return nil
}

func nonTestFiles(pkg *analysis.Package) []*ast.File {
	var out []*ast.File
	for _, f := range pkg.Files {
		if !strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// nestedModules lists the directories below root that hold a go.mod of
// their own, skipping the directories the go command ignores.
func nestedModules(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if name := d.Name(); name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// implementsAny reports whether fn is a method whose receiver type has
// every method of one of the interfaces ifaces lists.
func implementsAny(fn *types.Func, ifaces []map[string]string) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || len(ifaces) == 0 {
		return false
	}
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	have := methodSigs(t)
	for _, want := range ifaces {
		ok := true
		for name, sig := range want {
			ok = ok && have[name] == sig
		}
		if ok {
			return true
		}
	}
	return false
}

// methodSigs maps the methods of t's method set to their parameter and
// result types, without names, with package paths in full: a string,
// because an interface and a type that implements it may come from
// different typechecks, whose named types are not identical.
func methodSigs(t types.Type) map[string]string {
	ms := types.NewMethodSet(t)
	sigs := make(map[string]string, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		sig := ms.At(i).Obj().Type().(*types.Signature)
		var b strings.Builder
		for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
			b.WriteByte('(')
			for j := 0; j < tup.Len(); j++ {
				b.WriteString(types.TypeString(tup.At(j).Type(), nil) + ",")
			}
			b.WriteByte(')')
		}
		if sig.Variadic() {
			b.WriteString("...")
		}
		sigs[ms.At(i).Obj().Name()] = b.String()
	}
	return sigs
}
