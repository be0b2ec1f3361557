package cellqos

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignReferences keeps DESIGN.md and what refers to it in step:
//
//   - every "DESIGN.md §N[.M]" or "DESIGN §N" citation in the module's Go
//     files (testdata fixtures included), the Makefile, the CI workflows,
//     README.md and EXPERIMENTS.md names an existing "## N." or
//     "### N.M" heading;
//   - every backticked Test…, Benchmark… or Fuzz… name in DESIGN.md is a
//     func in some _test.go file;
//   - every directory under internal/ and cmd/ that holds non-test Go
//     appears in DESIGN.md's repository layout section.
//
// CHANGES.md (history) and ROADMAP.md (rewritten as items close) are not
// scanned. bench/ is a module of its own and is not scanned for
// citations either.
func TestDesignReferences(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(raw)

	sections := map[string]bool{}
	heading := regexp.MustCompile(`(?m)^(?:## (\d+)\.|### (\d+\.\d+)\.?) `)
	for _, m := range heading.FindAllStringSubmatch(design, -1) {
		sections[m[1]+m[2]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}

	var goFiles []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || isNestedModule(path)) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			goFiles = append(goFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited, _ := filepath.Glob(".github/workflows/*.yml")
	cited = append(cited, "Makefile", "README.md", "EXPERIMENTS.md")
	cited = append(cited, goFiles...)

	// A citation may wrap: "DESIGN.md\n// §14" in a Go comment,
	// "DESIGN.md\n  # §12" in YAML.
	citation := regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//|#)*§(\d+(?:\.\d+)?)`)
	for _, path := range cited {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range citation.FindAllSubmatchIndex(text, -1) {
			sec := string(text[loc[2]:loc[3]])
			if !sections[sec] {
				line := 1 + strings.Count(string(text[:loc[0]]), "\n")
				t.Errorf("%s:%d cites DESIGN.md §%s, which has no heading", path, line, sec)
			}
		}
	}

	funcs := map[string]bool{}
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	for _, path := range goFiles {
		if !strings.HasSuffix(path, "_test.go") {
			continue
		}
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(text), -1) {
			funcs[m[1]] = true
		}
	}
	// A backticked name may carry a package qualifier (suite.TestX) or a
	// sub-test or sub-benchmark path (BenchmarkX/large).
	named := regexp.MustCompile("`(?:\\w+\\.)?((?:Test|Benchmark|Fuzz)[A-Z]\\w*)(?:/[^`]*)?`")
	for _, m := range named.FindAllStringSubmatch(design, -1) {
		if !funcs[m[1]] {
			t.Errorf("DESIGN.md names %s, which is no func in any _test.go file", m[1])
		}
	}

	layout := sectionText(design, "Repository layout")
	if layout == "" {
		t.Fatal(`DESIGN.md has no "Repository layout" section`)
	}
	seen := map[string]bool{}
	for _, path := range goFiles {
		dir := filepath.ToSlash(filepath.Dir(path))
		if seen[dir] || strings.HasSuffix(path, "_test.go") || strings.Contains(dir, "/testdata") ||
			!(strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")) {
			continue
		}
		seen[dir] = true
		listed := regexp.MustCompile(`(?m)(?:^|[\s(` + "`" + `])` + regexp.QuoteMeta(dir) + `/?(?:[\s),` + "`" + `]|$)`)
		if !listed.MatchString(layout) {
			t.Errorf("%s holds non-test Go but is missing from DESIGN.md's repository layout", dir)
		}
	}
}

// isNestedModule reports whether dir is the root of a module of its own.
func isNestedModule(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

// sectionText returns the body of the "## " section whose title contains
// title, up to the next "## " heading.
func sectionText(doc, title string) string {
	start := -1
	for _, at := range regexp.MustCompile(`(?m)^## .*$`).FindAllStringIndex(doc, -1) {
		if start >= 0 {
			return doc[start:at[0]]
		}
		if strings.Contains(doc[at[0]:at[1]], title) {
			start = at[1]
		}
	}
	if start >= 0 {
		return doc[start:]
	}
	return ""
}
