// Package crashorder machine-enforces the crash-ordered checkpoint
// sequence in internal/service (DESIGN.md §14): a live checkpoint
// artifact is only ever replaced by temp file → write → fsync → rename
// → directory fsync. Two regressions are flagged:
//
//   - writefile: os.WriteFile aimed at a checkpoint path replaces the
//     live artifact in place — a crash mid-write leaves a torn file
//     under the current name, which is exactly what the rename
//     protocol exists to rule out. Tests that corrupt checkpoints on
//     purpose annotate the site with //cellqos:allow crashorder;
//   - order: an os.Rename committing a temp file over a live
//     checkpoint name must have a Sync call before it in the same
//     function (the temp-file fsync — without it the rename can commit
//     a file whose data blocks never hit disk) and a Sync call after
//     it (the directory fsync — without it a power cut can forget the
//     rename itself).
//
// Matching is intra-procedural by design: path arguments are resolved
// through local single-assignment substitution and classified by the
// strings they mention (checkpoint/.cqsc/CurrentPath), so the analyzer
// stays byte-stable and dependency-free. The analyzer only runs on
// internal/service packages (including their external test packages).
package crashorder

import (
	"go/ast"
	"go/types"
	"strings"

	"cellqos/internal/analysis"
	"cellqos/internal/analysis/flow"
)

// Analyzer enforces the tmp→fsync→rename→dir-sync checkpoint protocol.
var Analyzer = &analysis.Analyzer{
	Name: "crashorder",
	Doc: "flag os.WriteFile onto checkpoint paths and os.Rename commits over a " +
		"live checkpoint that are not preceded by a temp-file Sync and followed " +
		"by a directory Sync in the same function (internal/service only)",
	Run: run,
}

const servicePath = "internal/service"

func run(pass *analysis.Pass) (any, error) {
	if !inService(pass.Pkg.Path()) {
		return nil, nil
	}
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

// inService matches the service package and its external test package.
func inService(path string) bool {
	return flow.PathMatches(strings.TrimSuffix(path, "_test"), servicePath)
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	src := flow.Sources(pass.TypesInfo, fd)

	// Collect every Sync() call position in this function first: the
	// order check is positional within the function body.
	var syncs []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sync" {
			syncs = append(syncs, call)
		}
		return true
	})
	syncBefore := func(n ast.Node) bool {
		for _, s := range syncs {
			if s.Pos() < n.Pos() {
				return true
			}
		}
		return false
	}
	syncAfter := func(n ast.Node) bool {
		for _, s := range syncs {
			if s.Pos() > n.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := osCall(pass, call)
		if !ok {
			return true
		}
		switch {
		case name == "WriteFile" && len(call.Args) >= 1:
			if checkpointPathy(pass, src, call.Args[0]) {
				pass.Reportf(call.Pos(),
					"os.WriteFile onto a checkpoint path replaces the live artifact in place: a crash mid-write leaves a torn file — go through Checkpointer.Save's tmp→fsync→rename sequence")
			}
		case name == "Rename" && len(call.Args) >= 2:
			if !commitRename(pass, src, call) {
				return true
			}
			if !syncBefore(call) {
				pass.Reportf(call.Pos(),
					"checkpoint commit rename is not preceded by a Sync in this function: without the temp-file fsync the rename can commit data blocks that never reached disk")
			}
			if !syncAfter(call) {
				pass.Reportf(call.Pos(),
					"checkpoint commit rename is not followed by a Sync in this function: without the directory fsync a power cut can forget the rename itself")
			}
		}
		return true
	})
}

// osCall matches os.<Name>(...) package-qualified calls.
func osCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	pkgPath, name, ok := flow.PkgSelector(pass.TypesInfo, sel)
	if !ok || pkgPath != "os" {
		return "", false
	}
	return name, true
}

// commitRename recognizes Rename(tmp-like, live-checkpoint): the
// protocol step the order check guards.
func commitRename(pass *analysis.Pass, src map[types.Object][]ast.Expr, call *ast.CallExpr) bool {
	oldNames := gather(pass, src, call.Args[0])
	newNames := gather(pass, src, call.Args[1])
	return mentionsAny(oldNames, "tmp") && liveCheckpoint(newNames)
}

// checkpointPathy reports whether a path expression mentions the
// checkpoint artifacts by literal, constant, or accessor name.
func checkpointPathy(pass *analysis.Pass, src map[types.Object][]ast.Expr, e ast.Expr) bool {
	names := gather(pass, src, e)
	return mentionsAny(names, "checkpoint", ".cqsc", "currentpath")
}

// liveCheckpoint: checkpoint-pathy but neither the temp nor the rotated
// backup name.
func liveCheckpoint(names []string) bool {
	if !mentionsAny(names, "checkpoint", ".cqsc") {
		return false
	}
	return !mentionsAny(names, "tmp", "prev")
}

// gather resolves e through locals and collects the strings it
// mentions.
func gather(pass *analysis.Pass, src map[types.Object][]ast.Expr, e ast.Expr) []string {
	return flow.ConstStrings(pass.TypesInfo, flow.Resolve(src, pass.TypesInfo, e, 8))
}

func mentionsAny(names []string, subs ...string) bool {
	for _, n := range names {
		for _, s := range subs {
			if strings.Contains(n, s) {
				return true
			}
		}
	}
	return false
}
