// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// only.
//
// Fixture layout: <testdata>/src/<import path>/*.go. A fixture package
// may import another fixture package by its path (so stubs can stand
// in for cellqos/internal/core etc.); any other import (the standard
// library, or a real repo package) resolves through the source
// importer.
//
// Expectations: a comment of the form
//
//	code() // want `regexp`
//	code() // want "regexp one" "regexp two"
//
// asserts that the analyzer reports, on that line, exactly as many
// diagnostics as there are patterns, each matched (in any order) by
// one pattern. Diagnostics on lines without a want comment fail the
// test, as do unmatched wants. //cellqos:allow suppression is applied
// before matching, so fixtures also exercise the escape hatch.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cellqos/internal/analysis"
)

// Run loads each fixture package under testdata/src and applies the
// analyzer, comparing diagnostics against want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	RunSuite(t, testdata, []*analysis.Analyzer{a}, pkgPaths...)
}

// RunSuite is Run for several analyzers at once: the fixture package is
// analyzed by all of them in one RunAnalyzers call, so want comments
// see the merged diagnostic stream. This is how allowstale is tested —
// staleness only exists relative to the other analyzers in the same
// run — and how cross-analyzer fixtures assert that one line trips
// exactly the checks it should.
func RunSuite(t *testing.T, testdata string, analyzers []*analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := &loader{
		testdata: testdata,
		fset:     token.NewFileSet(),
		pkgs:     map[string]*analysis.Package{},
		loading:  map[string]bool{},
	}
	l.fallback = importer.ForCompiler(l.fset, "source", nil)
	for _, path := range pkgPaths {
		pkg, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		check(t, analyzers, pkg)
	}
}

// RunModule is the harness for module-level analyzers: it loads the
// fixture module rooted at dir (its own go.mod, test files included)
// with analysis.Load, runs the analyzers over all of its packages in
// one RunAnalyzers call, and checks every package's want comments.
func RunModule(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkgs, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture module %s: %v", dir, err)
	}
	check(t, analyzers, pkgs...)
}

// loader resolves fixture packages recursively, falling back to the
// source importer for everything outside the fixture tree.
type loader struct {
	testdata string
	fset     *token.FileSet
	pkgs     map[string]*analysis.Package
	loading  map[string]bool
	fallback types.Importer
}

func (l *loader) load(path string) (*analysis.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("fixture import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.testdata, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	info := analysis.NewTypesInfo()
	conf := types.Config{Importer: importerFunc(func(ipath string) (*types.Package, error) {
		if fixtureExists(l.testdata, ipath) {
			pkg, err := l.load(ipath)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
		return l.fallback.Import(ipath)
	})}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	pkg := &analysis.Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, TypesInfo: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

func fixtureExists(testdata, path string) bool {
	fi, err := os.Stat(filepath.Join(testdata, "src", filepath.FromSlash(path)))
	return err == nil && fi.IsDir()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// expectation is one want pattern at a file line.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	raw     string
	matched bool
}

// check runs the analyzers on fixture packages and diffs findings
// against the packages' want comments.
func check(t *testing.T, analyzers []*analysis.Analyzer, pkgs ...*analysis.Package) {
	t.Helper()
	findings, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		t.Fatalf("analyzers on %s: %v", pkgs[0].Path, err)
	}
	var wants []*expectation
	for _, pkg := range pkgs {
		w, err := collectWants(pkg)
		if err != nil {
			t.Fatalf("parsing want comments in %s: %v", pkg.Path, err)
		}
		wants = append(wants, w...)
	}

	for _, f := range findings {
		if !matchWant(wants, f) {
			t.Errorf("unexpected diagnostic: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// matchWant consumes the first unmatched expectation on the finding's
// line whose pattern matches.
func matchWant(wants []*expectation, f analysis.Finding) bool {
	for _, w := range wants {
		if w.matched || w.file != f.Posn.Filename || w.line != f.Posn.Line {
			continue
		}
		if w.rx.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses every // want comment in the package.
func collectWants(pkg *analysis.Package) ([]*expectation, error) {
	var wants []*expectation
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := wantPayload(c.Text)
				if !ok {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				patterns, err := parsePatterns(text)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", posn.Filename, posn.Line, err)
				}
				for _, p := range patterns {
					rx, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad pattern %q: %v", posn.Filename, posn.Line, p, err)
					}
					wants = append(wants, &expectation{file: posn.Filename, line: posn.Line, rx: rx, raw: p})
				}
			}
		}
	}
	sort.SliceStable(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants, nil
}

// wantPayload extracts the pattern list from a want comment. The usual
// form is a line comment `// want ...`; the block form `/* want ... */`
// exists for lines whose trailing line comment is already claimed by a
// //cellqos:allow directive (a // comment runs to end of line, so the
// two cannot share one) — allowstale fixtures assert on the directive's
// own line this way.
func wantPayload(text string) (string, bool) {
	if rest, ok := strings.CutPrefix(text, "// want "); ok {
		return rest, true
	}
	if rest, ok := strings.CutPrefix(text, "/* want "); ok {
		if inner, ok := strings.CutSuffix(rest, "*/"); ok {
			return strings.TrimSpace(inner), true
		}
	}
	return "", false
}

// parsePatterns splits a want payload into its quoted or backquoted
// regexp strings.
func parsePatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated ` pattern")
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '"':
			// Find the closing quote respecting escapes, then Unquote.
			i := 1
			for i < len(s) {
				if s[i] == '\\' {
					i += 2
					continue
				}
				if s[i] == '"' {
					break
				}
				i++
			}
			if i >= len(s) {
				return nil, fmt.Errorf("unterminated \" pattern")
			}
			q, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return nil, err
			}
			out = append(out, q)
			s = strings.TrimSpace(s[i+1:])
		default:
			return nil, fmt.Errorf("want patterns must be quoted or backquoted, got %q", s)
		}
	}
	if len(out) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	return out, nil
}
