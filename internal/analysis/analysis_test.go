package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text          string
		want          []string
		justification string
	}{
		{"//cellqos:allow nodeterm", []string{"nodeterm"}, ""},
		{"//cellqos:allow nodeterm wall-clock is fine here", []string{"nodeterm"}, "wall-clock is fine here"},
		{"//cellqos:allow nodeterm,genepoch staged migration", []string{"nodeterm", "genepoch"}, "staged migration"},
		{"//cellqos:allow", nil, ""},
		{"// cellqos:allow nodeterm", nil, ""}, // directives must be unspaced
		{"// plain comment", nil, ""},
	}
	for _, tc := range cases {
		got, justification, ok := parseAllow(tc.text)
		if tc.want == nil {
			if ok {
				t.Errorf("parseAllow(%q) = %v, want no directive", tc.text, got)
			}
			continue
		}
		if !ok || strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("parseAllow(%q) = %v,%v want %v", tc.text, got, ok, tc.want)
		}
		if justification != tc.justification {
			t.Errorf("parseAllow(%q) justification = %q, want %q", tc.text, justification, tc.justification)
		}
	}
}

func TestSuppressionLines(t *testing.T) {
	src := `package p

func f() int {
	a := 1 //cellqos:allow alpha same-line annotation
	//cellqos:allow beta next-line annotation
	b := 2
	c := 3
	return a + b + c
}
`
	fset, files := parseOne(t, src)
	idx := BuildAllowIndex(fset, files)

	posAt := func(line int) token.Pos {
		var pos token.Pos
		ast.Inspect(files[0], func(n ast.Node) bool {
			if n != nil && fset.Position(n.Pos()).Line == line && pos == token.NoPos {
				pos = n.Pos()
			}
			return true
		})
		if pos == token.NoPos {
			t.Fatalf("no node on line %d", line)
		}
		return pos
	}

	if !idx.Suppressed(fset, "alpha", posAt(4)) {
		t.Error("same-line alpha annotation did not suppress")
	}
	if !idx.Suppressed(fset, "beta", posAt(6)) {
		t.Error("line-above beta annotation did not suppress")
	}
	if idx.Suppressed(fset, "alpha", posAt(6)) {
		t.Error("alpha suppressed on a line annotated only for beta")
	}
	if idx.Suppressed(fset, "beta", posAt(7)) {
		t.Error("beta annotation leaked two lines down")
	}
}

func TestRunAnalyzersFiltersAndSorts(t *testing.T) {
	src := `package p

var a = 1 //cellqos:allow toy suppressed on purpose
var b = 2
var c = 3
`
	fset, files := parseOne(t, src)
	toy := &Analyzer{
		Name: "toy",
		Doc:  "report every package-level var, in reverse source order",
		Run: func(pass *Pass) (any, error) {
			var specs []*ast.ValueSpec
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if gd, ok := d.(*ast.GenDecl); ok {
						for _, s := range gd.Specs {
							if vs, ok := s.(*ast.ValueSpec); ok {
								specs = append(specs, vs)
							}
						}
					}
				}
			}
			for i := len(specs) - 1; i >= 0; i-- {
				pass.Reportf(specs[i].Pos(), "var %s", specs[i].Names[0].Name)
			}
			return nil, nil
		},
	}
	pkg := &Package{Path: "p", Fset: fset, Files: files}
	findings, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{toy})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("findings = %v, want b and c only", findings)
	}
	if findings[0].Message != "var b" || findings[1].Message != "var c" {
		t.Errorf("findings not position-sorted: %v", findings)
	}
	if got := findings[0].String(); !strings.Contains(got, "x.go:4:5: var b [toy]") {
		t.Errorf("Finding.String() = %q, want vet-style file:line:col: message [analyzer]", got)
	}
}

// toyVarAnalyzer reports every package-level var.
func toyVarAnalyzer(name string) *Analyzer {
	return &Analyzer{
		Name: name,
		Doc:  "report every package-level var",
		Run: func(pass *Pass) (any, error) {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					gd, ok := d.(*ast.GenDecl)
					if !ok {
						continue
					}
					for _, s := range gd.Specs {
						if vs, ok := s.(*ast.ValueSpec); ok {
							pass.Reportf(vs.Pos(), "var %s", vs.Names[0].Name)
						}
					}
				}
			}
			return nil, nil
		},
	}
}

func TestAllowStaleLedger(t *testing.T) {
	src := `package p

var a = 1 //cellqos:allow toy suppressed on purpose
var b = 2 //cellqos:allow quiet stale: the quiet analyzer reports nothing
var c = 3 //cellqos:allow notrun names no analyzer of the run
var d = 4 //cellqos:allow toy
`
	fset, files := parseOne(t, src)
	quiet := &Analyzer{Name: "quiet", Doc: "never reports", Run: func(*Pass) (any, error) { return nil, nil }}
	stale := &Analyzer{Name: AllowStaleName, Doc: "driver-backed", Run: func(*Pass) (any, error) { return nil, nil }}
	pkg := &Package{Path: "p", Fset: fset, Files: files}
	findings, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{toyVarAnalyzer("toy"), quiet, stale})
	if err != nil {
		t.Fatal(err)
	}
	// Expected, position-sorted:
	//   line 4: var b itself (the quiet annotation does not name toy);
	//           quiet's directive is stale (quiet ran and reported nothing)
	//   line 5: var c (notrun does not name toy); notrun is no analyzer
	//           of the run — a misspelled or deleted name is a finding
	//   line 6: toy suppressed var d, but the directive lacks a justification
	want := []struct{ analyzer, at, message string }{
		{"toy", "4:5", "var b"},
		{AllowStaleName, "4:11", "quiet suppresses no diagnostic"},
		{"toy", "5:5", "var c"},
		{AllowStaleName, "5:11", "notrun names no analyzer of this run"},
		{AllowStaleName, "6:11", "without a justification"},
	}
	if len(findings) != len(want) {
		t.Fatalf("findings = %v, want %d of them", findings, len(want))
	}
	for i, w := range want {
		f := findings[i]
		at := fmt.Sprintf("%d:%d", f.Posn.Line, f.Posn.Column)
		if f.Analyzer != w.analyzer || at != w.at || !strings.Contains(f.Message, w.message) {
			t.Errorf("findings[%d] = %s, want [%s] at %s containing %q", i, f, w.analyzer, w.at, w.message)
		}
	}
}

func TestAllowStaleSingleAnalyzerRunsAreExempt(t *testing.T) {
	// Without allowstale in the executed set, stale directives are not
	// judged: a fixture run of one analyzer must not condemn
	// annotations addressed to the other eight.
	src := `package p

var a = 1 //cellqos:allow quiet would be stale under the full suite
`
	fset, files := parseOne(t, src)
	pkg := &Package{Path: "p", Fset: fset, Files: files}
	findings, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{toyVarAnalyzer("toy")})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Analyzer != "toy" {
		t.Errorf("findings = %v, want only toy's var a", findings)
	}
}

func TestAllowStaleSelfSuppression(t *testing.T) {
	src := `package p

var a = 1 //cellqos:allow quiet,allowstale grandfathered during the staged cleanup
`
	fset, files := parseOne(t, src)
	quiet := &Analyzer{Name: "quiet", Doc: "never reports", Run: func(*Pass) (any, error) { return nil, nil }}
	stale := &Analyzer{Name: AllowStaleName, Doc: "driver-backed", Run: func(*Pass) (any, error) { return nil, nil }}
	pkg := &Package{Path: "p", Fset: fset, Files: files}
	findings, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{quiet, stale})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("findings = %v, want none: naming allowstale in the directive self-suppresses", findings)
	}
}

// TestRunModuleSuppressionAndAudit: a module-level analyzer reports
// into each package's own allow index, and the allowstale audit runs
// after it, so a directive only it uses is not stale.
func TestRunModuleSuppressionAndAudit(t *testing.T) {
	fsetA, filesA := parseOne(t, "package a\n\nvar a = 1 //cellqos:allow whole kept on purpose\n")
	fsetB, filesB := parseOne(t, "package b\n\nvar b = 2\n")
	pkgs := []*Package{{Path: "a", Fset: fsetA, Files: filesA}, {Path: "b", Fset: fsetB, Files: filesB}}
	whole := &Analyzer{Name: "whole", Doc: "report every package-level var of the run", RunModule: func(pass *ModulePass) error {
		for _, pkg := range pass.Pkgs {
			vs := pkg.Files[0].Decls[0].(*ast.GenDecl).Specs[0].(*ast.ValueSpec)
			pass.Report(pkg, Diagnostic{Pos: vs.Pos(), Message: "var " + vs.Names[0].Name})
		}
		return nil
	}}
	stale := &Analyzer{Name: AllowStaleName, Doc: "driver-backed", Run: func(*Pass) (any, error) { return nil, nil }}
	findings, err := RunAnalyzers(pkgs, []*Analyzer{whole, stale})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Analyzer != "whole" || findings[0].Message != "var b" {
		t.Errorf("findings = %v, want only whole's var b", findings)
	}
}
