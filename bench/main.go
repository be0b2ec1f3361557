// Command bench is the repository's benchmark: five workloads that
// between them load every layer a decision passes through, measured end
// to end (untraced) and layer by layer (a traced run plus direct drives
// of each layer's public API). README.md lists the workloads, metrics
// and how to read a trace; BENCHMARK.json at the repository root is the
// contract later changes are held to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// workloads lists the benchmark's workloads in reporting order.
func workloads() []*workload {
	metro := metroSpec(2).workload("10,000-cell metro under asynchronous signaling: the only workload on the sharded kernel, window barrier and mailbox, the only one that uses both cores, and the one where set-up, allocation and GC are large")
	metro.oneShard = metroSpec(1).workload("")
	return []*workload{
		ringAC3.workload("the paper's ring experiment under AC3, what every figure regeneration pays: core and predict do almost all the work, the kernel very little"),
		ringStatic.workload("the same ring, traffic and mobility with Eq. 5, predict and Peers bypassed: the kernel, cellnet, traffic and mobility are what is left"),
		metro,
		serveMesh(),
		signalMesh(),
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run this one workload in this process and print the result line (the driver's form); empty runs all five, each in a child process")
		seed    = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "host seconds of timed region per invocation")
		trace   = fs.Int("trace", 0, "0: untraced, end-to-end metrics; 1: layer drives and a traced run, per-layer metrics")
		smoke   = fs.Bool("smoke", false, "reduced workload sizes (the package test's scale)")
		runs    = fs.Int("runs", 1, "with no -workload: invocations per workload and mode, for medians and spreads")
		out     = fs.String("out", "", "with no -workload: write the result file here (default out/result-seed<N>.json)")
		compare = fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The run shape is fixed: two processors, whatever the host has.
	runtime.GOMAXPROCS(2)
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	dir, err := benchDir()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if *name == "" {
		return runAll(dir, *seed, *seconds, *smoke, *runs, *out)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	return runOne(w, dir, *seed, *seconds, *trace != 0, *smoke)
}

// benchDir locates the benchmark's own directory (where out/ lives):
// ./bench from the repository root, the working directory from inside
// bench/.
func benchDir() (string, error) {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench", nil
	}
	if _, err := os.Stat("go.mod"); err == nil {
		return ".", nil
	}
	return "", fmt.Errorf("run from the repository root or from bench/")
}

// resultLine is the one JSON object the driver reads from the last line
// of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload in this process.
func runOne(w *workload, dir string, seed uint64, seconds float64, traced, smoke bool) int {
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-"+w.name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: seed, smoke: smoke, tmp: tmp}

	var o *outcome
	defs := endToEnd
	if traced {
		defs = perLayer
		o, err = measureLayers(w, e, seconds, filepath.Join(outDir, "trace-"+w.name+".json"))
	} else {
		o, err = measure(w, e, seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	// Notes (calibration, sample counts) are for people and go to
	// standard error; standard output carries the metrics, the digest
	// and, last, the result line.
	fmt.Fprintf(os.Stderr, "workload %s seed %d\n", w.name, seed)
	for _, n := range o.notes {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
	fmt.Printf("result_digest %s\n", o.digest)
	line := resultLine{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := o.metrics[d.name]
		fmt.Printf("  %-34s %16.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, msg := range o.errs {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", w.name, msg)
	}
	data, err := json.Marshal(&line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	if !o.correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
