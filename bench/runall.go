package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// resultFile is what one `bench -seed N` writes and `bench -compare`
// reads: every run of every workload in both modes.
type resultFile struct {
	Machine   machine                    `json:"machine"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Smoke     bool                       `json:"smoke,omitempty"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Digest    string `json:"result_digest"`
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// EndToEnd and PerLayer hold one value per run, in run order.
	EndToEnd map[string][]float64 `json:"end_to_end"`
	PerLayer map[string][]float64 `json:"per_layer"`
}

// runAll runs every workload, untraced and traced, each invocation in
// its own child process so that set-up time and peak memory belong to
// that workload alone. It prints every metric by name with its unit,
// writes the result file, and fails if any check failed.
func runAll(dir string, seed uint64, seconds float64, smoke bool, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	rf := &resultFile{Machine: thisMachine(), Seed: seed, Seconds: seconds, Smoke: smoke, Workloads: map[string]*workloadResult{}}
	ok := true
	for _, w := range workloads() {
		wr := &workloadResult{Correct: true, EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
		rf.Workloads[w.name] = wr
		for run := 0; run < runs; run++ {
			for _, traced := range []bool{false, true} {
				line, digest, err := child(self, w.name, seed, seconds, traced, smoke)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s (trace=%v): %v\n", w.name, traced, err)
					wr.Correct, ok = false, false
					continue
				}
				into := wr.EndToEnd
				if traced {
					into = wr.PerLayer
				} else {
					wr.Attempted += line.Attempted
					wr.Failed += line.Failed
				}
				for _, name := range sortedKeys(line.Metrics) {
					into[name] = append(into[name], line.Metrics[name].Value)
				}
				if wr.Digest == "" {
					wr.Digest = digest
				} else if digest != wr.Digest {
					fmt.Fprintf(os.Stderr, "bench: %s: traced and untraced runs disagree: digest %s vs %s\n", w.name, digest, wr.Digest)
					wr.Correct, ok = false, false
				}
				if !line.Correct {
					wr.Correct, ok = false, false
				}
			}
		}
		printWorkload(w, wr)
	}
	if out == "" {
		out = filepath.Join(dir, "out", fmt.Sprintf("result-seed%d.json", seed)) // a child created out/
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err == nil {
		err = os.WriteFile(out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("\nmachine: %s, nproc %d, %s, GOMAXPROCS %d\nresults written to %s\n",
		rf.Machine.CPU, rf.Machine.NumCPU, rf.Machine.GoVersion, rf.Machine.GOMAXPROCS, out)
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: FAILED: at least one correctness or calibration check did not hold")
		return 1
	}
	return 0
}

// child runs one workload invocation in a fresh process and parses the
// result line and digest from its standard output. The child's notes
// and check failures pass through on standard error.
func child(self, name string, seed uint64, seconds float64, traced, smoke bool) (*resultLine, string, error) {
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // a failed check exits non-zero but still prints its result line
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return nil, "", runErr
		}
		return nil, "", fmt.Errorf("no result line: %w", err)
	}
	digest := ""
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "result_digest "); ok {
			digest = rest
		}
	}
	return &line, digest, nil
}

func printWorkload(w *workload, wr *workloadResult) {
	status := "ok"
	if !wr.Correct {
		status = "FAILED"
	}
	fmt.Printf("\n%s  [%s]  attempted %d  failed %d  result_digest %s\n", w.name, status, wr.Attempted, wr.Failed, wr.Digest)
	for _, d := range endToEnd {
		fmt.Printf("  %-34s %16.6g %-6s (%s is better)\n", d.name, median(wr.EndToEnd[d.name]), d.unit, d.better)
	}
	for _, d := range perLayer {
		fmt.Printf("  %-34s %16.6g %s\n", d.name, median(wr.PerLayer[d.name]), d.unit)
	}
}
