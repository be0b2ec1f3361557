package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// result formats one benchmark line the way `go test -bench -benchmem`
// prints it, with the frames/op custom metric between ns/op and B/op
// when frames is non-zero.
func result(name string, ns float64, c counts) string {
	frames := ""
	if c.FramesPerOp != 0 {
		frames = fmt.Sprintf("\t%10.2f frames/op", c.FramesPerOp)
	}
	return fmt.Sprintf("%s-2   \t   20000\t%10g ns/op%s\t%8g B/op\t%8g allocs/op\n",
		name, ns, frames, c.BytesPerOp, c.AllocsPerOp)
}

func TestParse(t *testing.T) {
	in := "goos: linux\ngoarch: amd64\npkg: cellqos/internal/signaling\ncpu: Intel(R) Xeon(R)\n" +
		result("BenchmarkAdmitSignaled", 60318, counts{3056, 33, 12}) +
		result("BenchmarkBarrier/msgs=64", 60.76, counts{}) +
		"BenchmarkChurn/q=1k \t 9950916\t 108.8 ns/op\t 0 B/op\t 0 allocs/op\n" + // GOMAXPROCS=1: no suffix
		"BenchmarkNoMem-2 \t 100\t 5.0 ns/op\n" + // no allocation columns: not a measurement
		"BenchmarkBroken\n--- FAIL: BenchmarkBroken\n    x_test.go:9: boom\n" +
		"PASS\nFAIL\tcellqos/internal/sim [build failed]\nok  \tcellqos/internal/core\t5.663s\n"
	got, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]counts{
		"BenchmarkAdmitSignaled":   {BytesPerOp: 3056, AllocsPerOp: 33, FramesPerOp: 12},
		"BenchmarkBarrier/msgs=64": {},
		"BenchmarkChurn/q=1k":      {},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse = %+v, want %+v", got, want)
	}
}

// testLedger pins a zero row and a signaling row.
var testLedger = map[string]counts{
	"BenchmarkAdmitNew/large": {},
	"BenchmarkAdmitSignaled":  {BytesPerOp: 3000, AllocsPerOp: 30, FramesPerOp: 12},
}

// writeLedger writes testLedger the way the command does and returns
// its path and bytes.
func writeLedger(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_admission.json")
	buf, err := json.MarshalIndent(testLedger, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf
}

// both is a run of the two testLedger benchmarks with the given counts.
func both(large, signaled counts) string {
	return result("BenchmarkAdmitNew/large", 3000, large) + result("BenchmarkAdmitSignaled", 60000, signaled)
}

// TestRun gates runs against the ledger: each case's exit status and
// stderr lines, and the ledger left byte-identical.
func TestRun(t *testing.T) {
	signaled := testLedger["BenchmarkAdmitSignaled"]
	for _, tc := range []struct {
		name   string
		in     string
		code   int
		stderr []string // substrings, each required
	}{
		{"holds", both(counts{}, signaled), 0,
			[]string{"ok   BenchmarkAdmitNew/large", "ok   BenchmarkAdmitSignaled"}},
		{"ns/op never gated", result("BenchmarkAdmitNew/large", 9e12, counts{}) +
			result("BenchmarkAdmitSignaled", 9e12, signaled), 0, nil},
		{"zero pin, first byte", both(counts{BytesPerOp: 1}, signaled), 1,
			[]string{"FAIL BenchmarkAdmitNew/large: 1 B/op over pin 0", "1 of 2 rows fail"}},
		{"zero pin, first allocation", both(counts{AllocsPerOp: 1}, signaled), 1,
			[]string{"FAIL BenchmarkAdmitNew/large: 1 allocs/op over pin 0"}},
		{"10 % over on every count", both(counts{}, counts{3300, 33, 13.2}), 0, nil},
		{"frames past 10 %", both(counts{}, counts{3000, 30, 13.25}), 1,
			[]string{"FAIL BenchmarkAdmitSignaled: 13.25 frames/op over pin 12"}},
		{"bytes and allocations past 10 %", both(counts{}, counts{3301, 34, 12}), 1,
			[]string{"FAIL BenchmarkAdmitSignaled: 3301 B/op over pin 3000, 34 allocs/op over pin 30"}},
		{"missing row", result("BenchmarkAdmitNew/large", 3000, counts{}) +
			"FAIL\tcellqos/internal/signaling [build failed]\n", 1,
			[]string{"FAIL BenchmarkAdmitSignaled: pinned, but missing from this run"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, before := writeLedger(t)
			var stderr strings.Builder
			if code := run(nil, strings.NewReader(tc.in), path, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			for _, s := range tc.stderr {
				if !strings.Contains(stderr.String(), s) {
					t.Errorf("stderr lacks %q:\n%s", s, stderr.String())
				}
			}
			if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
				t.Errorf("ledger rewritten without a new row (%v):\n%s", err, after)
			}
		})
	}
}

func TestRunPinsUnseenRow(t *testing.T) {
	path, _ := writeLedger(t)
	in := both(counts{}, testLedger["BenchmarkAdmitSignaled"]) +
		result("BenchmarkRecord/daily", 6000, counts{BytesPerOp: 8, AllocsPerOp: 1})
	var stderr strings.Builder
	if code := run(nil, strings.NewReader(in), path, &stderr); code != 0 || !strings.Contains(stderr.String(), "pin  BenchmarkRecord/daily") {
		t.Fatalf("exit %d, stderr:\n%s\nwant 0 and a pin line", code, stderr.String())
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]counts
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]counts{"BenchmarkRecord/daily": {BytesPerOp: 8, AllocsPerOp: 1}}
	for name, c := range testLedger {
		want[name] = c
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger after pinning = %+v, want %+v", got, want)
	}
}

func TestRunNeedsLedger(t *testing.T) {
	var stderr strings.Builder
	in := result("BenchmarkAdmitNew/large", 3000, counts{})
	if code := run(nil, strings.NewReader(in), filepath.Join(t.TempDir(), "none.json"), &stderr); code != 1 {
		t.Fatalf("exit %d with no ledger file, want 1; stderr: %s", code, stderr.String())
	}
}

func TestRunTakesNoFlags(t *testing.T) {
	for _, args := range [][]string{{"-check"}, {"-out", "x.json"}, {"-h"}, {"BENCH_admission.json"}} {
		var stderr strings.Builder
		code := run(args, strings.NewReader(""), "unused.json", &stderr)
		if code == 0 || !strings.HasPrefix(stderr.String(), "usage: ") {
			t.Errorf("run(%q) = %d, stderr %q; want non-zero and usage", args, code, stderr.String())
		}
	}
}
