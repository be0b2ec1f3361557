package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec() (*benchmarkSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &spec, nil
	}
	return nil, firstErr
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the ratio b/a, the bound and a verdict, and returns non-zero if any
// metric is worse. "worse" means b's median is worse than a's by more
// than the bound; where either side's quartile spread is wider than the
// bound the metric is "unresolved" instead, unless every run of b reads
// better than every run of a.
func compareFiles(aPath, bPath string) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	a, err := loadResults(aPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadResults(bPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return compare(spec, a, b)
}

func compare(spec *benchmarkSpec, a, b *resultFile) int {
	fmt.Printf("a: seed %d, %gs, %s\nb: seed %d, %gs, %s\n", a.Seed, a.Seconds, a.Machine.CPU, b.Seed, b.Seconds, b.Machine.CPU)
	worse := 0
	for _, name := range sortedKeys(a.Workloads) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Printf("\n%s: missing from b\n", name)
			worse++
			continue
		}
		fmt.Printf("\n%s\n", name)
		if wa.Digest != wb.Digest {
			fmt.Printf("  simulated statistics differ: result_digest %s vs %s\n", wa.Digest, wb.Digest)
		}
		fmt.Printf("  %-20s %14s %14s %12s %7s  %s\n", "metric", "a (median)", "b (median)", "b/a", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("  %-20s missing\n", m.Name)
				worse++
				continue
			}
			ma, mb := median(va), median(vb)
			verdict := verdictOf(va, vb, m.Better == "higher", m.Bound)
			if verdict == "worse" {
				worse++
			}
			fmt.Printf("  %-20s %14.6g %14.6g %12.4f %6.0f%%  %s\n", m.Name, ma, mb, ratio(mb, ma), m.Bound*100, verdict)
		}
	}
	if worse > 0 {
		fmt.Printf("\n%d metric(s) worse than the bound allows (ratios are b over a)\n", worse)
		return 1
	}
	return 0
}

func verdictOf(a, b []float64, higherBetter bool, bound float64) string {
	ma, mb := median(a), median(b)
	// loss is how much worse b's median is, as a share of a's.
	loss := ratio(mb-ma, ma)
	if higherBetter {
		loss = -loss
	}
	if quartileSpread(a) > bound || quartileSpread(b) > bound {
		if allBetter(a, b, higherBetter) {
			return "ok"
		}
		return "unresolved"
	}
	if loss > bound {
		return "worse"
	}
	return "ok"
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, higherBetter bool) bool {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if higherBetter {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
