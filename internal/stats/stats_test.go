package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersProbabilities(t *testing.T) {
	var c Counters
	if c.PCB() != 0 || c.PHD() != 0 || c.NCalc() != 0 {
		t.Fatal("zero counters must yield zero ratios")
	}
	for i := 0; i < 100; i++ {
		c.RecordRequest(i < 25)
	}
	if got := c.PCB(); got != 0.25 {
		t.Fatalf("PCB = %v, want 0.25", got)
	}
	for i := 0; i < 200; i++ {
		c.RecordHandOff(i < 2)
	}
	if got := c.PHD(); got != 0.01 {
		t.Fatalf("PHD = %v, want 0.01", got)
	}
}

func TestCountersNCalc(t *testing.T) {
	var c Counters
	c.RecordAdmissionTest(1)
	c.RecordAdmissionTest(3)
	c.RecordAdmissionTest(2)
	if got := c.NCalc(); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("NCalc = %v, want 2", got)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{Requested: 10, Blocked: 1, HandOffs: 5, Dropped: 1, Completed: 3, Exited: 2, AdmissionTests: 10, BrCalcs: 12}
	b := Counters{Requested: 20, Blocked: 2, HandOffs: 15, Dropped: 0, Completed: 6, Exited: 1, AdmissionTests: 20, BrCalcs: 25}
	a.Add(&b)
	if a.Requested != 30 || a.Blocked != 3 || a.HandOffs != 20 || a.Dropped != 1 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if a.Completed != 9 || a.Exited != 3 || a.AdmissionTests != 30 || a.BrCalcs != 37 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 10)
	w.Set(10, 20) // 10 for [0,10)
	w.Set(30, 0)  // 20 for [10,30)
	// Mean over [0,40]: (10·10 + 20·20 + 0·10)/40 = 500/40 = 12.5
	if got := w.Mean(40); math.Abs(got-12.5) > 1e-12 {
		t.Fatalf("Mean = %v, want 12.5", got)
	}
	if w.Value() != 0 {
		t.Fatalf("Value = %v, want 0", w.Value())
	}
}

func TestTimeWeightedBeforeAnySet(t *testing.T) {
	var w TimeWeighted
	if w.Mean(100) != 0 {
		t.Fatal("Mean before Set should be 0")
	}
}

func TestTimeWeightedNonZeroStart(t *testing.T) {
	var w TimeWeighted
	w.Set(100, 5)
	if got := w.Mean(200); got != 5 {
		t.Fatalf("Mean = %v, want 5 (constant since start)", got)
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	var w TimeWeighted
	w.Set(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards Set did not panic")
		}
	}()
	w.Set(5, 2)
}

func TestSeriesAppend(t *testing.T) {
	var s Series
	s.Append(1, 10)
	s.Append(2, 20)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	ti, v := s.At(1)
	if ti != 2 || v != 20 {
		t.Fatalf("At(1) = %v,%v", ti, v)
	}
}

func TestSeriesValueAt(t *testing.T) {
	var s Series
	s.Append(10, 1)
	s.Append(20, 2)
	s.Append(30, 3)
	if _, ok := s.ValueAt(5); ok {
		t.Fatal("ValueAt before first point returned ok")
	}
	cases := map[float64]float64{10: 1, 15: 1, 20: 2, 29.9: 2, 30: 3, 100: 3}
	for at, want := range cases {
		if got, ok := s.ValueAt(at); !ok || got != want {
			t.Errorf("ValueAt(%v) = %v,%v want %v", at, got, ok, want)
		}
	}
}

func TestHourlyBuckets(t *testing.T) {
	var h Hourly
	h.RecordRequest(100, true)
	h.RecordRequest(3700, false)
	h.RecordHandOff(3800, true)
	h.RecordHandOff(3900, false)
	if h.Hours() != 2 {
		t.Fatalf("Hours = %d, want 2", h.Hours())
	}
	h0 := h.Hour(0)
	if h0.Requested != 1 || h0.Blocked != 1 {
		t.Fatalf("hour 0 = %+v", h0)
	}
	h1 := h.Hour(1)
	if h1.HandOffs != 2 || h1.Dropped != 1 || h1.PHD() != 0.5 {
		t.Fatalf("hour 1 = %+v", h1)
	}
	if out := h.Hour(99); out.Requested != 0 {
		t.Fatal("out-of-range hour not zero")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Cell", "PCB", "PHD")
	tb.AddRow(1, 0.623, 6.53e-3)
	tb.AddRow(2, 0.0, 0.25)
	out := tb.String()
	if !strings.Contains(out, "Cell") || !strings.Contains(out, "6.53e-03") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "Cell,PCB,PHD\n") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
}

func TestFormatProb(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		0.623:   "0.623",
		0.01:    "0.010",
		6.53e-3: "6.53e-03",
	}
	for in, want := range cases {
		if got := FormatProb(in); got != want {
			t.Errorf("FormatProb(%v) = %q, want %q", in, got, want)
		}
	}
}

// Property: TimeWeighted Mean always lies within [min, max] of set values.
func TestPropertyTimeWeightedBounded(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var w TimeWeighted
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range vals {
			fv := float64(v)
			w.Set(float64(i), fv)
			if fv < lo {
				lo = fv
			}
			if fv > hi {
				hi = fv
			}
		}
		m := w.Mean(float64(len(vals)))
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PCB and PHD are always in [0,1] and Add preserves totals.
func TestPropertyCountersAddConsistent(t *testing.T) {
	f := func(reqs, blocks, hos, drops uint16) bool {
		a := Counters{
			Requested: uint64(reqs), Blocked: uint64(blocks) % (uint64(reqs) + 1),
			HandOffs: uint64(hos), Dropped: uint64(drops) % (uint64(hos) + 1),
		}
		b := a
		sum := a
		sum.Add(&b)
		if sum.Requested != 2*a.Requested || sum.Dropped != 2*a.Dropped {
			return false
		}
		for _, c := range []*Counters{&a, &sum} {
			if c.PCB() < 0 || c.PCB() > 1 || c.PHD() < 0 || c.PHD() > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
