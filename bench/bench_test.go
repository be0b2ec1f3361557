package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON is the whole of BENCHMARK.json, as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesCode holds BENCHMARK.json and the metric tables in the
// code to each other: same names, units and directions, in the same
// order, and the same workloads.
func TestSpecMatchesCode(t *testing.T) {
	spec := readSpec(t)
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the code %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: name %q or unit %q outside the allowed characters", kind, g.Name, g.Unit)
			}
			if seen[g.Name] {
				t.Errorf("%s: %s declared twice", kind, g.Name)
			}
			seen[g.Name] = true
			if bounded != (g.Bound != nil) {
				t.Errorf("%s: %s: bound present=%v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s: %s: bound %v outside (0, 0.25]", kind, g.Name, *g.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)

	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code %s", i, spec.Workloads[i].Name, w.name)
		}
		if why := spec.Workloads[i].Why; why == "" || len(why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(why))
		}
	}
}

// TestSmoke runs every workload at the reduced scale, untraced and
// traced, and checks what the result lines would carry: every declared
// metric exactly once and no other, traced and untraced digests equal,
// span parents resolving and children nesting (measureLayers checks the
// in-memory spans; here the written file is read back). A second seed
// runs untraced to show that no check is tuned to seed 1.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			e := &env{seed: 1, smoke: true, tmp: t.TempDir()}
			plain, err := measure(w, e, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			requireOutcome(t, plain, endToEnd)
			for _, d := range endToEnd {
				if v := plain.metrics[d.name]; !(v > 0) {
					t.Errorf("%s = %v: end-to-end metrics are never 0", d.name, v)
				}
			}

			tracePath := filepath.Join(e.tmp, "trace.json")
			traced, err := measureLayers(w, e, 0.2, tracePath)
			if err != nil {
				t.Fatal(err)
			}
			requireOutcome(t, traced, perLayer)
			if traced.digest != plain.digest {
				t.Errorf("traced digest %s, untraced %s: tracing changed the outputs", traced.digest, plain.digest)
			}
			checkTraceFile(t, tracePath)

			other, err := measure(w, &env{seed: 2, smoke: true, tmp: t.TempDir()}, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			requireOutcome(t, other, endToEnd)
			if other.digest == plain.digest {
				t.Errorf("seeds 1 and 2 gave the same digest %s: the seed does not reach the inputs", plain.digest)
			}
		})
	}
}

func requireOutcome(t *testing.T, o *outcome, defs []metricDef) {
	t.Helper()
	if !o.correct {
		t.Errorf("checks failed: %v", o.errs)
	}
	if o.attempted == 0 {
		t.Error("nothing attempted")
	}
	want := map[string]bool{}
	for _, d := range defs {
		want[d.name] = true
		v, ok := o.metrics[d.name]
		if !ok {
			t.Errorf("metric %s not emitted", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v", d.name, v)
		}
	}
	for name := range o.metrics {
		if !want[name] {
			t.Errorf("undeclared metric %s emitted", name)
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.SpansWritten != len(tf.Spans) || tf.SpansWritten == 0 || tf.SpansTotal < tf.SpansWritten {
		t.Fatalf("trace file: %d spans, header says %d written of %d", len(tf.Spans), tf.SpansWritten, tf.SpansTotal)
	}
	byID := map[spanID]traceFileSpan{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s) names parent %d, which is not in the file", s.ID, s.Name, s.Parent)
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Fatalf("span %d (%s) is not inside its parent %s", s.ID, s.Name, p.Name)
		}
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(v, n=4): for 1..10 the quartiles are 2.75 and
// 8.25, the median 5.5.
func TestQuartileSpread(t *testing.T) {
	v := []float64{7, 1, 10, 4, 2, 9, 3, 8, 5, 6}
	if got, want := quartileSpread(v), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if v[0] != 7 || v[9] != 6 {
		t.Error("quartileSpread or median reordered its input")
	}
}

// TestCompareVerdicts checks the three verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steady, steady, true, "ok"},
		{"throughput fell by a fifth", steady, []float64{80, 81, 79, 80, 80}, true, "worse"},
		{"latency fell", steady, []float64{80, 81, 79, 80, 80}, false, "ok"},
		{"latency rose within the bound", steady, []float64{105, 106, 104, 105, 105}, false, "ok"},
		{"spread wider than the bound", []float64{60, 100, 140, 80, 120}, steady, true, "unresolved"},
		{"wide but every run better", []float64{60, 100, 140, 80, 120}, []float64{200, 210, 190, 205, 195}, true, "ok"},
	}
	for _, c := range cases {
		if got := verdictOf(c.a, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
