// Command benchjson gates `go test -bench -benchmem` output on stdin
// against the ledger BENCH_admission.json in the current directory,
// which pins B/op, allocs/op and frames/op (protocol frames per signaled
// decision) per benchmark; never ns/op, which follows the host more than
// the code (bench/ measures time). A row fails, named on stderr, when a
// count reads more than 10 % over its pin (a pin of 0 fails on the first
// byte, allocation or frame) and when the run lacks it: renamed, deleted,
// or its package failed. A benchmark the ledger has not seen is pinned
// at its first measurement and written back. There are no flags; to
// re-pin a row, delete it.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// maxRegression is how far above its pin a count may read.
const maxRegression = 0.10

// counts is one ledger row, or one measured benchmark.
type counts struct {
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	FramesPerOp float64 `json:"frames_per_op"`
}

// over lists the counts of c more than maxRegression above pin.
func (c counts) over(pin counts) (out []string) {
	check := func(unit string, cur, pin float64) {
		if cur > pin*(1+maxRegression) {
			out = append(out, fmt.Sprintf("%g %s over pin %g", cur, unit, pin))
		}
	}
	check("B/op", c.BytesPerOp, pin.BytesPerOp)
	check("allocs/op", c.AllocsPerOp, pin.AllocsPerOp)
	check("frames/op", c.FramesPerOp, pin.FramesPerOp)
	return
}

// gomaxprocsSuffix is the -N the test runner appends to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parse reads benchmark lines as the name, the iteration count, then
// (value, unit) pairs: a custom metric such as frames/op sits between
// ns/op and B/op, so columns are found by unit, not by position. A line
// without allocs/op is not a measurement.
func parse(r io.Reader) (map[string]counts, error) {
	rows := map[string]counts{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || !slices.Contains(f, "allocs/op") {
			continue
		}
		var c counts
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "B/op":
				c.BytesPerOp = v
			case "allocs/op":
				c.AllocsPerOp = v
			case "frames/op":
				c.FramesPerOp = v
			}
		}
		rows[gomaxprocsSuffix.ReplaceAllString(f[0], "")] = c
	}
	return rows, sc.Err()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, "BENCH_admission.json", os.Stderr))
}

// run gates stdin against the ledger at path and returns the exit status.
func run(args []string, stdin io.Reader, path string, stderr io.Writer) int {
	if len(args) > 0 {
		fmt.Fprintln(stderr, "usage: go test -bench ... -benchmem | benchjson (takes no flags)")
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	got, err := parse(stdin)
	if err != nil {
		return fail(err)
	}
	var ledger map[string]counts
	buf, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(buf, &ledger)
	}
	if err != nil {
		return fail(fmt.Errorf("ledger: %w", err))
	}
	names := make([]string, 0, len(ledger)+len(got))
	for name := range ledger {
		names = append(names, name)
	}
	for name := range got {
		names = append(names, name)
	}
	slices.Sort(names)
	names = slices.Compact(names)
	failed, pinned := 0, false
	for _, name := range names {
		pin, ok := ledger[name]
		cur, ran := got[name]
		status, detail := "ok  ", fmt.Sprintf("%+v", cur)
		switch bad := cur.over(pin); {
		case !ran:
			status, detail = "FAIL", "pinned, but missing from this run"
		case !ok:
			ledger[name], pinned, status = cur, true, "pin "
		case len(bad) > 0:
			status, detail = "FAIL", strings.Join(bad, ", ")
		}
		if status == "FAIL" {
			failed++
		}
		fmt.Fprintf(stderr, "%s %s: %s\n", status, name, detail)
	}
	if pinned {
		buf, err := json.MarshalIndent(ledger, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(buf, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	if failed > 0 {
		return fail(fmt.Errorf("%d of %d rows fail: missing, or more than 10%% over the pin", failed, len(names)))
	}
	return 0
}
