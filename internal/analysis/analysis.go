// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass,
// Diagnostic) plus the cellqos-specific pieces shared by every
// analyzer: the //cellqos:allow suppression index — the one way to
// accept a finding — the allow-staleness ledger behind the allowstale
// analyzer, and the repo-wide runner.
//
// The hermetic build environment bakes in only the Go toolchain — no
// module proxy, no vendored x/tools — so the framework is written
// against the standard library exclusively (go/ast, go/types,
// go/importer, go/token). The exported surface deliberately mirrors
// x/tools so that, should the dependency ever become available, each
// analyzer ports by changing one import line.
//
// Analyzers live in subpackages (nodeterm, maporderflow, peervalue,
// genepoch, policycontract, shardsafe, crashorder, unreached,
// allowstale — see suite.Analyzers for the full set) and are driven
// either by cmd/cellqos-vet, which sweeps whole packages loaded by
// Load, or by the analysistest fixture harness. Shared dataflow and
// callgraph helpers live in the flow subpackage.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. The shape matches
// golang.org/x/tools/go/analysis.Analyzer (minus facts and requires,
// which no cellqos analyzer needs).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //cellqos:allow annotations. Lower-case, no spaces.
	Name string
	// Doc is the help text: first sentence = summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
	// RunModule, set instead of Run, applies the analyzer once to every
	// package of the run together: for a check whose verdict on one
	// package depends on what the others reference (unreached).
	RunModule func(*ModulePass) error
}

// A Pass connects an Analyzer to the single package being analyzed.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report publishes one diagnostic. The driver wraps it with the
	// //cellqos:allow suppression filter.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A ModulePass hands a module-level analyzer every package of the run.
// Report takes the package a diagnostic's position belongs to, since
// each loaded package has its own file set and allow index.
type ModulePass struct {
	Pkgs   []*Package
	Report func(*Package, Diagnostic)
}

// A Diagnostic is one finding within the package under analysis.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved diagnostic: position turned into a
// token.Position and tagged with the analyzer that produced it.
type Finding struct {
	Analyzer string
	Posn     token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Posn, f.Message, f.Analyzer)
}

// AllowStaleName is the reserved analyzer name under which RunAnalyzers
// reports escape-hatch hygiene findings: stale //cellqos:allow
// annotations that suppress nothing, and annotations missing their
// mandatory justification. The allowstale subpackage registers an
// Analyzer by this name whose Run is empty — the real work needs the
// whole suite's suppression ledger, which only the driver has.
const AllowStaleName = "allowstale"

// AllowDirective is the comment prefix of the escape hatch. A comment
//
//	//cellqos:allow nodeterm — wall-clock is for progress display only
//
// suppresses nodeterm diagnostics on the offending line. The
// annotation sits either at the end of that line (covers its own line)
// or on its own line directly above (covers the line below) — never
// both, so a trailing annotation cannot blanket the statement below.
// Several analyzers may be named, comma-separated; everything after
// the first space is a free-form justification, which the review
// policy in DESIGN.md §12 requires (and the allowstale analyzer now
// machine-checks).
const AllowDirective = "//cellqos:allow"

// allowName is one analyzer name within a directive, with its usage
// ledger: whether it ever suppressed a diagnostic in this run.
type allowName struct {
	name string
	used bool
}

// allowDirective is one parsed //cellqos:allow comment.
type allowDirective struct {
	pos       token.Pos
	names     []*allowName
	justified bool
}

// AllowIndex resolves each //cellqos:allow directive to the single
// line it covers and keeps the per-name usage ledger the allowstale
// analyzer reads.
type AllowIndex struct {
	// byLine: file name → covered line → entries allowed on that line.
	byLine     map[string]map[int][]*allowName
	directives []*allowDirective
}

// BuildAllowIndex scans every comment in files for allow directives. A
// trailing annotation (code precedes it on the line) covers exactly
// its own line; an own-line annotation covers the line below it — so
// an end-of-line annotation can never silently blanket the next
// statement.
func BuildAllowIndex(fset *token.FileSet, files []*ast.File) *AllowIndex {
	idx := &AllowIndex{byLine: map[string]map[int][]*allowName{}}
	for _, f := range files {
		codeCols := earliestCodeColumns(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, justification, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				d := &allowDirective{pos: c.Pos(), justified: justification != ""}
				for _, n := range names {
					d.names = append(d.names, &allowName{name: n})
				}
				idx.directives = append(idx.directives, d)

				posn := fset.Position(c.Pos())
				line := posn.Line
				if col, hasCode := codeCols[line]; !hasCode || col >= posn.Column {
					line++ // own-line annotation: covers the next line
				}
				lines := idx.byLine[posn.Filename]
				if lines == nil {
					lines = map[int][]*allowName{}
					idx.byLine[posn.Filename] = lines
				}
				lines[line] = append(lines[line], d.names...)
			}
		}
	}
	return idx
}

// earliestCodeColumns maps each line of f to the smallest column where
// a non-comment token starts — how BuildAllowIndex tells trailing
// annotations from own-line ones.
func earliestCodeColumns(fset *token.FileSet, f *ast.File) map[int]int {
	cols := map[int]int{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return true
		}
		posn := fset.Position(n.Pos())
		if c, ok := cols[posn.Line]; !ok || posn.Column < c {
			cols[posn.Line] = posn.Column
		}
		return true
	})
	return cols
}

// parseAllow extracts the analyzer names and justification from one
// comment text.
func parseAllow(text string) (names []string, justification string, ok bool) {
	rest, ok := strings.CutPrefix(text, AllowDirective)
	if !ok {
		return nil, "", false
	}
	rest = strings.TrimSpace(rest)
	// The name list ends at the first space; the remainder is the
	// justification.
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		justification = strings.TrimSpace(rest[i:])
		rest = rest[:i]
	}
	if rest == "" {
		return nil, "", false
	}
	return strings.Split(rest, ","), justification, true
}

// Suppressed reports whether a diagnostic from the named analyzer at
// pos is covered by an allow directive, and marks the covering entry
// used in the staleness ledger. BuildAllowIndex has already resolved
// each directive to the single line it covers (its own line for
// trailing annotations, the line below for own-line ones).
func (idx *AllowIndex) Suppressed(fset *token.FileSet, analyzer string, pos token.Pos) bool {
	if len(idx.byLine) == 0 {
		return false
	}
	posn := fset.Position(pos)
	hit := false
	for _, entry := range idx.byLine[posn.Filename][posn.Line] {
		if entry.name == analyzer || entry.name == "all" {
			entry.used = true
			hit = true
		}
	}
	return hit
}

// staleFindings turns the usage ledger into allowstale diagnostics for
// one package: directives that suppressed nothing any executed analyzer
// reported, directives naming no analyzer of the run (a misspelling, or
// an analyzer since deleted, would otherwise pass forever), and
// directives missing their mandatory justification. Both real drivers
// run the whole suite, so "the run" is every analyzer there is; a
// fixture run of one analyzer leaves allowstale out and is not audited.
// Findings are themselves suppressible: a trailing directive that also
// names allowstale covers its own line.
func (idx *AllowIndex) staleFindings(fset *token.FileSet, executed map[string]bool) []Finding {
	var out []Finding
	emit := func(pos token.Pos, msg string) {
		if idx.Suppressed(fset, AllowStaleName, pos) {
			return
		}
		out = append(out, Finding{Analyzer: AllowStaleName, Posn: fset.Position(pos), Message: msg})
	}
	for _, d := range idx.directives {
		if !d.justified {
			emit(d.pos, "//cellqos:allow without a justification: state why the rule does not apply (DESIGN.md §12 makes the reason mandatory)")
		}
		for _, n := range d.names {
			switch {
			case n.used:
			case n.name != "all" && !executed[n.name]:
				emit(d.pos, fmt.Sprintf(
					"//cellqos:allow %s names no analyzer of this run: a misspelled or deleted name suppresses nothing — fix the name or delete the annotation", n.name))
			default:
				emit(d.pos, fmt.Sprintf(
					"//cellqos:allow %s suppresses no diagnostic: the finding it excused is gone — delete the annotation to keep the escape-hatch ledger honest", n.name))
			}
		}
	}
	return out
}

// RunAnalyzers applies every analyzer to every package and returns the
// unsuppressed findings sorted by position. An analyzer with RunModule
// runs once over all packages after the per-package ones. Analyzer
// errors abort the run — a broken analyzer must not pass silently as
// "no findings".
//
// When the set includes the allowstale analyzer (by name), the driver
// additionally audits each package's //cellqos:allow directives after
// the other analyzers ran: an annotation that suppressed nothing, one
// naming no analyzer of the run, or one missing its justification
// becomes an allowstale finding.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	executed := map[string]bool{}
	for _, a := range analyzers {
		executed[a.Name] = true
	}
	idx := make(map[*Package]*AllowIndex, len(pkgs))
	var findings []Finding
	report := func(name string, pkg *Package, d Diagnostic) {
		if idx[pkg].Suppressed(pkg.Fset, name, d.Pos) {
			return
		}
		findings = append(findings, Finding{
			Analyzer: name,
			Posn:     pkg.Fset.Position(d.Pos),
			Message:  d.Message,
		})
	}
	for _, pkg := range pkgs {
		idx[pkg] = BuildAllowIndex(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			name := a.Name
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report:    func(d Diagnostic) { report(name, pkg, d) },
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		name := a.Name
		pass := &ModulePass{Pkgs: pkgs, Report: func(pkg *Package, d Diagnostic) { report(name, pkg, d) }}
		if err := a.RunModule(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
		}
	}
	if executed[AllowStaleName] {
		for _, pkg := range pkgs {
			findings = append(findings, idx[pkg].staleFindings(pkg.Fset, executed)...)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Posn.Filename != b.Posn.Filename {
			return a.Posn.Filename < b.Posn.Filename
		}
		if a.Posn.Line != b.Posn.Line {
			return a.Posn.Line < b.Posn.Line
		}
		if a.Posn.Column != b.Posn.Column {
			return a.Posn.Column < b.Posn.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// NewTypesInfo allocates the full types.Info map set every pass needs.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
