package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, typechecked package ready for analysis.
type Package struct {
	// Path is the import path with any test-variant suffix stripped
	// (the path go/types reports for the package).
	Path string
	// ModuleDir is the root directory of the package's module (empty
	// for fixture packages, which belong to none).
	ModuleDir string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPackage mirrors the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	DepOnly    bool
	ForTest    string
	ImportMap  map[string]string
	Module     *struct{ Dir string }
	Error      *struct{ Err string }
}

// Load enumerates the packages matching patterns below dir with
// `go list -export -json -deps -test`, then parses and typechecks each
// matched module package from source, resolving every dependency
// (standard library included) through the gc export data the go
// command just produced. It is fully offline: no module proxy, no
// x/tools — only the baked-in toolchain and its build cache.
//
// Each package's test-augmented variant replaces the plain variant (its
// file set is a superset), so _test.go helpers are analyzed too;
// external _test packages are loaded as their own packages. Synthetic
// ".test" main packages are skipped.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-export", "-json", "-deps", "-test"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}

	exports := map[string]string{} // full ImportPath (variant suffix kept) → export file
	var listed []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		q := p
		listed = append(listed, &q)
	}

	// Select the packages to analyze: the pattern matches (!DepOnly),
	// minus synthetic test-binary mains, and with each test-augmented
	// variant shadowing its plain sibling so files are analyzed once.
	byClean := map[string]*listPackage{}
	var order []string
	for _, p := range listed {
		if p.DepOnly || p.Standard || len(p.CgoFiles) > 0 {
			continue
		}
		clean := cleanImportPath(p.ImportPath)
		if strings.HasSuffix(clean, ".test") {
			continue // generated _testmain.go package
		}
		prev, seen := byClean[clean]
		if !seen {
			order = append(order, clean)
		}
		if !seen || (p.ForTest != "" && prev.ForTest == "") {
			byClean[clean] = p
		}
	}

	var pkgs []*Package
	for _, clean := range order {
		pkg, err := typecheck(byClean[clean], clean, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// cleanImportPath strips go list's test-variant suffix:
// "a/b [a/b.test]" → "a/b".
func cleanImportPath(ip string) string {
	if i := strings.Index(ip, " ["); i >= 0 {
		return ip[:i]
	}
	return ip
}

// typecheck parses one listed package's files and typechecks them
// against gc export data for every import.
func typecheck(p *listPackage, path string, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range p.GoFiles {
		full := name
		if !filepath.IsAbs(full) {
			full = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %v", full, err)
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, "gc", func(ipath string) (io.ReadCloser, error) {
		if real, ok := p.ImportMap[ipath]; ok {
			ipath = real
		}
		exp, ok := exports[ipath]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (importer of %q)", ipath, path)
		}
		return os.Open(exp)
	})
	info := NewTypesInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %v", path, err)
	}
	pkg := &Package{Path: path, Fset: fset, Files: files, Types: tpkg, TypesInfo: info}
	if p.Module != nil {
		pkg.ModuleDir = p.Module.Dir
	}
	return pkg, nil
}
