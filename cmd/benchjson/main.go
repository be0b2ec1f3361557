// Command benchjson converts `go test -bench` output into the
// BENCH_admission.json artifact tracked at the repository root: a small
// machine-readable record of the admission fast path's throughput.
//
// The file keeps two measurement sets. "baseline" is written the first
// time the file is created and preserved by every later run, so it pins
// the pre-optimization numbers the fast path is judged against (a
// benchmark the baseline has not seen yet is pinned at its first
// measurement); "current" is refreshed on each invocation, and
// "speedup" is their per-benchmark ns/op ratio. Delete the file (or
// pass -rebaseline) to re-baseline deliberately.
//
// Usage:
//
//	go test -bench ... -benchmem ./internal/core/ | benchjson -out BENCH_admission.json
//
// Sub-benchmarks named .../shards=N additionally produce a "scaling"
// map: the ns/op ratio of the shards=1 run to each shards=N run of the
// same benchmark (BENCH_sim.json pins the sharded kernel's speedup this
// way).
//
// With -check the tool also gates: a current allocation profile
// (B/op, allocs/op) or frames/op count more than -max-regression worse
// than the pinned baseline fails, as does — with -check-time, for runs
// on the machine that recorded the baseline — a ns/op regression.
// -min-scaling fails when the best shards=N scaling falls short of the
// requested factor, capped by the cores the host actually has (a
// single-core machine cannot exhibit parallel speedup, so the gate
// adjusts rather than demanding the impossible).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// result is one parsed benchmark line. P99NsPerOp carries the custom
// "p99-ns/op" metric the admission benchmark reports (zero when the
// benchmark doesn't emit it); like ns/op it is machine-dependent, so it
// is only gated under -check-time. FramesPerOp is the signaling
// benchmark's "frames/op": protocol frames per admission decision, a
// count like the allocation profile and gated with it. A benchmark
// that reports it crosses a transport, where wall time is goroutine
// scheduling, so its ns/op is recorded but never gated.
type result struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	P99NsPerOp  float64 `json:"p99_ns_per_op,omitempty"`
	FramesPerOp float64 `json:"frames_per_op,omitempty"`
}

// report is the serialized artifact.
type report struct {
	Baseline map[string]result  `json:"baseline"`
	Current  map[string]result  `json:"current"`
	Speedup  map[string]float64 `json:"speedup"`
	Scaling  map[string]float64 `json:"scaling,omitempty"`
	Raw      []string           `json:"raw"`
}

// shardSuffix matches the .../shards=N sub-benchmark naming convention.
var shardSuffix = regexp.MustCompile(`^(Benchmark\S*)/shards=(\d+)$`)

// scaling derives the per-shard-count speedup map from the current
// results: for every benchmark with a shards=1 entry, the ratio of its
// ns/op to each shards=N sibling's.
func scaling(current map[string]result) map[string]float64 {
	out := map[string]float64{}
	for name, res := range current {
		m := shardSuffix.FindStringSubmatch(name)
		if m == nil || m[2] == "1" || res.NsPerOp <= 0 {
			continue
		}
		base, ok := current[m[1]+"/shards=1"]
		if !ok || base.NsPerOp <= 0 {
			continue
		}
		out[name] = base.NsPerOp / res.NsPerOp
	}
	return out
}

// check gates the current results against the pinned baseline. The
// allocation profile (B/op, allocs/op) is machine-independent and is
// always checked — a baseline of zero included: a benchmark pinned at
// 0 allocs/op fails on its first allocation; ns/op only when checkTime
// is set, since wall time against a baseline from different hardware is
// noise, not signal (and a zero there means "not reported").
func check(rep report, maxRegression float64, checkTime bool) error {
	names := make([]string, 0, len(rep.Current))
	for name := range rep.Current {
		names = append(names, name)
	}
	sort.Strings(names)
	var bad []string
	worse := func(cur, base float64) bool {
		return cur > base*(1+maxRegression)
	}
	slower := func(cur, base float64) bool {
		return base > 0 && worse(cur, base)
	}
	for _, name := range names {
		base, ok := rep.Baseline[name]
		if !ok {
			continue
		}
		cur := rep.Current[name]
		if worse(cur.BytesPerOp, base.BytesPerOp) {
			bad = append(bad, fmt.Sprintf("%s: %.0f B/op vs baseline %.0f", name, cur.BytesPerOp, base.BytesPerOp))
		}
		if worse(cur.AllocsPerOp, base.AllocsPerOp) {
			bad = append(bad, fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f", name, cur.AllocsPerOp, base.AllocsPerOp))
		}
		if worse(cur.FramesPerOp, base.FramesPerOp) {
			bad = append(bad, fmt.Sprintf("%s: %.2f frames/op vs baseline %.2f", name, cur.FramesPerOp, base.FramesPerOp))
		}
		if cur.FramesPerOp > 0 {
			continue // crosses a transport: counts are gated, time is not
		}
		if checkTime && slower(cur.NsPerOp, base.NsPerOp) {
			bad = append(bad, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f", name, cur.NsPerOp, base.NsPerOp))
		}
		if checkTime && slower(cur.P99NsPerOp, base.P99NsPerOp) {
			bad = append(bad, fmt.Sprintf("%s: %.0f p99-ns/op vs baseline %.0f", name, cur.P99NsPerOp, base.P99NsPerOp))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("regression beyond %.0f%%:\n  %s", maxRegression*100, joinLines(bad))
	}
	return nil
}

// checkScaling gates the sharded-kernel speedup. want is capped at
// roughly half the host's cores: conservative synchronization overhead
// aside, N shards cannot run faster than the cores carrying them.
func checkScaling(sc map[string]float64, want float64, cores int) error {
	if want <= 0 || len(sc) == 0 {
		return nil
	}
	effective := want
	if cap := 0.45 * float64(cores); cap < effective {
		effective = cap
	}
	best, bestName := 0.0, ""
	for name, v := range sc {
		if v > best {
			best, bestName = v, name
		}
	}
	if best < effective {
		return fmt.Errorf("scaling %.2fx (%s) below required %.2fx (%d cores, requested %.2fx)",
			best, bestName, effective, cores, want)
	}
	fmt.Fprintf(os.Stderr, "benchjson: scaling ok: %.2fx (%s) >= %.2fx required on %d cores\n",
		best, bestName, effective, cores)
	return nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}

// gomaxprocsSuffix is the trailing -N the test runner appends to
// benchmark names; it is stripped so results stay comparable across
// machines.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parse reads go-test benchmark lines generically: the name, the
// iteration count, then any number of (value, unit) pairs. Custom
// metrics reported via b.ReportMetric (the admission benchmark's
// "p99-ns/op") appear between ns/op and B/op in the runner's output, so
// a positional regex would silently drop the allocation columns —
// exactly the numbers -check gates — the moment a benchmark grows a
// custom metric. Unknown units are ignored, not errors.
func parse(r io.Reader) (map[string]result, []string, error) {
	results := map[string]result{}
	var raw []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		raw = append(raw, line)
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		res := result{Iterations: iters}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			case "p99-ns/op":
				res.P99NsPerOp = v
			case "frames/op":
				res.FramesPerOp = v
			}
		}
		results[gomaxprocsSuffix.ReplaceAllString(f[0], "")] = res
	}
	return results, raw, sc.Err()
}

func run() error {
	in := flag.String("in", "-", "bench output to parse (- for stdin)")
	out := flag.String("out", "BENCH_admission.json", "JSON artifact to write")
	rebaseline := flag.Bool("rebaseline", false, "overwrite the recorded baseline with this run")
	doCheck := flag.Bool("check", false, "fail on allocation-profile regression beyond -max-regression")
	maxRegression := flag.Float64("max-regression", 0.10, "allowed fractional regression vs the pinned baseline")
	checkTime := flag.Bool("check-time", false, "with -check, also gate ns/op (same-machine baselines only)")
	minScaling := flag.Float64("min-scaling", 0, "fail when the best shards=N speedup is below this factor (core-capped; 0 = off)")
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	current, raw, err := parse(src)
	if err != nil {
		return err
	}
	if len(current) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}

	rep := report{Current: current, Raw: raw, Speedup: map[string]float64{}}
	if prev, err := os.ReadFile(*out); err == nil && !*rebaseline {
		var old report
		if err := json.Unmarshal(prev, &old); err != nil {
			return fmt.Errorf("existing %s is not a benchjson artifact: %w", *out, err)
		}
		rep.Baseline = old.Baseline
	}
	if rep.Baseline == nil {
		rep.Baseline = current
	}
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base, ok := rep.Baseline[name]
		if !ok {
			base = current[name]
			rep.Baseline[name] = base
		}
		if current[name].NsPerOp > 0 {
			rep.Speedup[name] = base.NsPerOp / current[name].NsPerOp
		}
	}
	rep.Scaling = scaling(rep.Current)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if *doCheck {
		if err := check(rep, *maxRegression, *checkTime); err != nil {
			return err
		}
	}
	return checkScaling(rep.Scaling, *minScaling, runtime.NumCPU())
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
