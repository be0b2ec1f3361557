package mobility

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"unsafe"

	"cellqos/internal/topology"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0)) }

func TestSpeedRangeSample(t *testing.T) {
	r := rng(1)
	for i := 0; i < 1000; i++ {
		v := HighMobility.Sample(r)
		if v < 80*KmhToKms || v > 120*KmhToKms {
			t.Fatalf("speed %v km/s outside [80,120] km/h", v)
		}
	}
}

func TestSpeedRangeDegenerate(t *testing.T) {
	r := SpeedRange{100, 100}
	if got := r.Sample(rng(2)); got != 100*KmhToKms {
		t.Fatalf("degenerate range sampled %v, want %v", got, 100*KmhToKms)
	}
}

func TestSpeedRangeInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted speed range did not panic")
		}
	}()
	SpeedRange{100, 50}.Sample(rng(3))
}

func TestLinearRingHopsAreAdjacent(t *testing.T) {
	top := topology.Ring(10)
	m := &Linear{Top: top, DiameterKm: 1, Speed: HighMobility}
	r := rng(4)
	for trial := 0; trial < 50; trial++ {
		start := topology.CellID(r.IntN(10))
		p := m.NewPath(r, start)
		cur := start
		for hop := 0; hop < 30; hop++ {
			h, ok := p.NextHop()
			if !ok {
				t.Fatal("ring path ended; mobiles never leave a ring")
			}
			if !top.Adjacent(cur, h.Next) {
				t.Fatalf("hop %d: %d -> %d not adjacent", hop, cur, h.Next)
			}
			if h.Sojourn <= 0 {
				t.Fatalf("non-positive sojourn %v", h.Sojourn)
			}
			cur = h.Next
		}
	}
}

func TestLinearNeverTurnsAround(t *testing.T) {
	// A4: mobiles run straight, so on a ring the hop sequence is strictly
	// monotone modulo n.
	top := topology.Ring(10)
	m := &Linear{Top: top, DiameterKm: 1, Speed: LowMobility}
	r := rng(5)
	for trial := 0; trial < 50; trial++ {
		p := m.NewPath(r, 0)
		h0, _ := p.NextHop()
		step := (int(h0.Next) - 0 + 10) % 10
		if step != 1 && step != 9 {
			t.Fatalf("first hop lands on %d", h0.Next)
		}
		cur := h0.Next
		for i := 0; i < 25; i++ {
			h, _ := p.NextHop()
			if (int(h.Next)-int(cur)+10)%10 != step {
				t.Fatalf("direction changed mid-path: %d -> %d (step %d)", cur, h.Next, step)
			}
			cur = h.Next
		}
	}
}

func TestLinearFullCellSojournConstant(t *testing.T) {
	// After the first (partial) cell, every sojourn is diameter/speed.
	top := topology.Ring(5)
	m := &Linear{Top: top, DiameterKm: 2, Speed: SpeedRange{72, 72}} // 72 km/h = 0.02 km/s
	p := m.NewPath(rng(6), 0)
	first, _ := p.NextHop()
	want := 2.0 / (72 * KmhToKms)
	if first.Sojourn > want {
		t.Fatalf("first sojourn %v exceeds full-cell time %v", first.Sojourn, want)
	}
	for i := 0; i < 10; i++ {
		h, _ := p.NextHop()
		if math.Abs(h.Sojourn-want) > 1e-9 {
			t.Fatalf("hop %d sojourn = %v, want %v", i, h.Sojourn, want)
		}
	}
}

func TestLinearFirstSojournUniform(t *testing.T) {
	// The entry point is uniform in the cell, so the mean first-cell
	// sojourn should be about half the full traversal time.
	top := topology.Ring(5)
	m := &Linear{Top: top, DiameterKm: 1, Speed: SpeedRange{100, 100}}
	full := 1.0 / (100 * KmhToKms)
	r := rng(7)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		p := m.NewPath(r, 0)
		h, _ := p.NextHop()
		if h.Sojourn <= 0 || h.Sojourn > full {
			t.Fatalf("first sojourn %v outside (0, %v]", h.Sojourn, full)
		}
		sum += h.Sojourn
	}
	mean := sum / n
	if math.Abs(mean-full/2) > full*0.02 {
		t.Fatalf("mean first sojourn %v, want ≈ %v", mean, full/2)
	}
}

func TestLinearDirectionsBalanced(t *testing.T) {
	top := topology.Ring(10)
	m := &Linear{Top: top, DiameterKm: 1, Speed: HighMobility}
	r := rng(8)
	fwd := 0
	const n = 10000
	for i := 0; i < n; i++ {
		p := m.NewPath(r, 3)
		h, _ := p.NextHop()
		if h.Next == 4 {
			fwd++
		}
	}
	if fwd < n*45/100 || fwd > n*55/100 {
		t.Fatalf("forward fraction %d/%d not ≈ 1/2", fwd, n)
	}
}

func TestLinearForwardOnly(t *testing.T) {
	top := topology.Line(10)
	m := &Linear{Top: top, DiameterKm: 1, Speed: HighMobility, Direction: ForwardOnly}
	r := rng(9)
	for trial := 0; trial < 20; trial++ {
		p := m.NewPath(r, 7)
		cells := []topology.CellID{}
		for {
			h, ok := p.NextHop()
			if !ok {
				break
			}
			cells = append(cells, h.Next)
		}
		// From cell 7 on a 10-cell line: visits 8, 9, then leaves (None).
		if len(cells) != 3 || cells[0] != 8 || cells[1] != 9 || cells[2] != topology.None {
			t.Fatalf("forward path from 7 = %v", cells)
		}
	}
}

func TestLinearBackwardOnly(t *testing.T) {
	top := topology.Line(5)
	m := &Linear{Top: top, DiameterKm: 1, Speed: HighMobility, Direction: BackwardOnly}
	p := m.NewPath(rng(10), 1)
	h1, ok := p.NextHop()
	if !ok || h1.Next != 0 {
		t.Fatalf("first hop = %v,%v want cell 0", h1.Next, ok)
	}
	h2, ok := p.NextHop()
	if !ok || h2.Next != topology.None {
		t.Fatalf("exit hop = %v,%v want None,true", h2.Next, ok)
	}
	if _, ok := p.NextHop(); ok {
		t.Fatal("path continued after leaving coverage")
	}
}

func TestLinearStationaryProb(t *testing.T) {
	top := topology.Ring(5)
	m := &Linear{Top: top, DiameterKm: 1, Speed: HighMobility, StationaryProb: 1}
	p := m.NewPath(rng(11), 2)
	h, ok := p.NextHop()
	if !ok || !math.IsInf(h.Sojourn, 1) || h.Next != topology.None {
		t.Fatalf("stationary mobile hop = %+v,%v", h, ok)
	}
}

func TestStationaryModel(t *testing.T) {
	p := Stationary{}.NewPath(rng(12), 0)
	h, ok := p.NextHop()
	if !ok || !math.IsInf(h.Sojourn, 1) {
		t.Fatalf("stationary hop = %+v,%v", h, ok)
	}
}

func TestLinearOnHexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Linear on hex topology did not panic")
		}
	}()
	m := &Linear{Top: topology.Hex(3, 3, true), DiameterKm: 1, Speed: HighMobility}
	m.NewPath(rng(13), 0)
}

func TestHexWalkHopsAdjacent(t *testing.T) {
	top := topology.Hex(5, 5, true)
	m := &HexWalk{Top: top, DiameterKm: 1, Speed: HighMobility, Persistence: 0.7}
	r := rng(14)
	for trial := 0; trial < 30; trial++ {
		start := topology.CellID(r.IntN(top.NumCells()))
		p := m.NewPath(r, start)
		cur := start
		for hop := 0; hop < 40; hop++ {
			h, ok := p.NextHop()
			if !ok {
				t.Fatal("wrapped hex path ended")
			}
			if !top.Adjacent(cur, h.Next) {
				t.Fatalf("hex hop %d -> %d not adjacent", cur, h.Next)
			}
			cur = h.Next
		}
	}
}

func TestHexWalkFullPersistenceGoesStraight(t *testing.T) {
	top := topology.Hex(6, 6, true)
	m := &HexWalk{Top: top, DiameterKm: 1, Speed: SpeedRange{60, 60}, Persistence: 1}
	r := rng(15)
	p := m.NewPath(r, 0)
	h1, _ := p.NextHop()
	// Direction is fixed; the step from each cell to the next must be the
	// same hex direction every time. Verify via repeated stepping.
	prev := h1.Next
	var dir = -1
	for d := 0; d < topology.NumHexDirs; d++ {
		if nb, ok := top.HexStep(0, d); ok && nb == h1.Next {
			dir = d
			break
		}
	}
	if dir == -1 {
		t.Fatal("first hex hop not a neighbor step")
	}
	for i := 0; i < 20; i++ {
		h, _ := p.NextHop()
		want, _ := top.HexStep(prev, dir)
		if h.Next != want {
			t.Fatalf("persistent walk deviated: got %d want %d", h.Next, want)
		}
		prev = h.Next
	}
}

func TestHexWalkLeavesUnwrappedGrid(t *testing.T) {
	top := topology.Hex(3, 3, false)
	m := &HexWalk{Top: top, DiameterKm: 1, Speed: HighMobility, Persistence: 1}
	r := rng(16)
	left := false
	for trial := 0; trial < 50 && !left; trial++ {
		p := m.NewPath(r, 4)
		for i := 0; i < 10; i++ {
			h, ok := p.NextHop()
			if !ok {
				break
			}
			if h.Next == topology.None {
				left = true
				break
			}
		}
	}
	if !left {
		t.Fatal("no mobile ever left a 3x3 unwrapped grid going straight")
	}
}

func TestHexWalkSojournTimes(t *testing.T) {
	top := topology.Hex(4, 4, true)
	m := &HexWalk{Top: top, DiameterKm: 1.5, Speed: SpeedRange{54, 54}, Persistence: 0.5}
	full := 1.5 / (54 * KmhToKms)
	p := m.NewPath(rng(17), 0)
	h, _ := p.NextHop()
	if h.Sojourn <= 0 || h.Sojourn > full {
		t.Fatalf("first hex sojourn %v outside (0,%v]", h.Sojourn, full)
	}
	for i := 0; i < 10; i++ {
		h, _ = p.NextHop()
		if math.Abs(h.Sojourn-full) > 1e-9 {
			t.Fatalf("hex sojourn %v, want %v", h.Sojourn, full)
		}
	}
}

func TestHexWalkBadPersistencePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Persistence=2 did not panic")
		}
	}()
	m := &HexWalk{Top: topology.Hex(3, 3, true), DiameterKm: 1, Speed: HighMobility, Persistence: 2}
	m.NewPath(rng(18), 0)
}

// Property: every Linear path on a ring, for any seed, produces adjacent
// hops with positive finite sojourns, and its per-hop speed is constant.
func TestPropertyLinearPathWellFormed(t *testing.T) {
	top := topology.Ring(8)
	f := func(seed uint64, startRaw uint8) bool {
		r := rng(seed)
		m := &Linear{Top: top, DiameterKm: 1, Speed: SpeedRange{30, 130}}
		start := topology.CellID(int(startRaw) % 8)
		p := m.NewPath(r, start)
		cur := start
		var fullSojourn float64
		for i := 0; i < 20; i++ {
			h, ok := p.NextHop()
			if !ok || h.Sojourn <= 0 || math.IsInf(h.Sojourn, 0) {
				return false
			}
			if !top.Adjacent(cur, h.Next) {
				return false
			}
			if i >= 1 {
				if fullSojourn == 0 {
					fullSojourn = h.Sojourn
				} else if math.Abs(h.Sojourn-fullSojourn) > 1e-9 {
					return false
				}
			}
			cur = h.Next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: HexWalk on a torus never terminates and visits only valid cells.
func TestPropertyHexWalkWellFormed(t *testing.T) {
	top := topology.Hex(5, 7, true)
	f := func(seed uint64, persRaw uint8) bool {
		r := rng(seed)
		m := &HexWalk{
			Top: top, DiameterKm: 1, Speed: SpeedRange{20, 150},
			Persistence: float64(persRaw) / 255,
		}
		p := m.NewPath(r, topology.CellID(seed%uint64(top.NumCells())))
		for i := 0; i < 50; i++ {
			h, ok := p.NextHop()
			if !ok || !top.Valid(h.Next) || h.Sojourn <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A PathState is no larger than the 48-B path object a model allocated
// per mobile before paths were filled in place, so a simulator that keeps
// one in each connection slot holds no more than it did.
func TestPathStateSize(t *testing.T) {
	if got := unsafe.Sizeof(PathState{}); got > 48 {
		t.Fatalf("PathState is %d bytes, want ≤ 48", got)
	}
}

// pathModel is a model that also fills a caller-owned path.
type pathModel interface {
	Model
	InitPath(ps *PathState, rng *rand.Rand, start topology.CellID, sr SpeedRange)
}

// initPathCases are the models InitPath must agree with NewPathWithSpeed
// under: Linear in every direction policy on a ring and on a line, with
// and without stationary mobiles; HexWalk on a wrapped and an open grid;
// and Stationary.
var initPathCases = []struct {
	name  string
	m     pathModel
	cells int // starts are drawn from [0, cells)
}{
	{"linear ring random stationary 0.3", &Linear{Top: topology.Ring(10), DiameterKm: 1, Speed: HighMobility, StationaryProb: 0.3}, 10},
	{"linear ring forward", &Linear{Top: topology.Ring(10), DiameterKm: 1, Speed: LowMobility, Direction: ForwardOnly}, 10},
	{"linear ring backward", &Linear{Top: topology.Ring(7), DiameterKm: 2, Speed: HighMobility, Direction: BackwardOnly}, 7},
	{"linear line random", &Linear{Top: topology.Line(10), DiameterKm: 1, Speed: HighMobility}, 10},
	{"linear line forward stationary 0.3", &Linear{Top: topology.Line(6), DiameterKm: 1, Speed: HighMobility, Direction: ForwardOnly, StationaryProb: 0.3}, 6},
	{"linear line backward", &Linear{Top: topology.Line(6), DiameterKm: 1.5, Speed: LowMobility, Direction: BackwardOnly}, 6},
	{"hexwalk wrapped persistence 0.8", &HexWalk{Top: topology.Hex(5, 6, true), DiameterKm: 1, Speed: HighMobility, Persistence: 0.8}, 30},
	{"hexwalk open persistence 0.8 stationary 0.3", &HexWalk{Top: topology.Hex(4, 4, false), DiameterKm: 1, Speed: LowMobility, Persistence: 0.8, StationaryProb: 0.3}, 16},
	{"stationary", Stationary{}, 5},
}

// initPathSpeeds are the speed ranges a case is tried at; the zero range
// takes the model's own.
var initPathSpeeds = []SpeedRange{{}, HighMobility, LowMobility, {100, 100}}

// checkInitPath fails t unless InitPath into the dirty, reused ps and
// NewPathWithSpeed (NewPath for a model without it), each from one of
// two twin-seeded streams, give hops identical to the bit and leave the
// two streams at the same position.
func checkInitPath(t testing.TB, ps *PathState, c int, seed uint64, start topology.CellID, sr SpeedRange) {
	t.Helper()
	m := initPathCases[c].m
	a, b := rng(seed), rng(seed)
	m.InitPath(ps, a, start, sr)
	var p Path
	if sa, ok := m.(SpeedAware); ok {
		p = sa.NewPathWithSpeed(b, start, sr)
	} else {
		p = m.NewPath(b, start)
	}
	for i := 0; i < 40; i++ {
		got, gotOK := ps.NextHop()
		want, wantOK := p.NextHop()
		if got.Next != want.Next || math.Float64bits(got.Sojourn) != math.Float64bits(want.Sojourn) || gotOK != wantOK {
			t.Fatalf("%s from %d, seed %d, %v: hop %d = %+v,%v, want %+v,%v", initPathCases[c].name, start, seed, sr, i, got, gotOK, want, wantOK)
		}
	}
	if x, y := a.Uint64(), b.Uint64(); x != y {
		t.Fatalf("%s from %d, seed %d, %v: streams left at different positions", initPathCases[c].name, start, seed, sr)
	}
}

// InitPath replays NewPathWithSpeed exactly, into a PathState that the
// previous case (another model, kind and start) left mid-path.
func TestInitPathMatchesNewPath(t *testing.T) {
	var ps PathState
	for seed := uint64(1); seed <= 40; seed++ {
		for c, tc := range initPathCases {
			start := topology.CellID(seed % uint64(tc.cells))
			for _, sr := range initPathSpeeds {
				checkInitPath(t, &ps, c, seed, start, sr)
			}
		}
	}
}

func FuzzInitPath(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(3), uint8(0), uint8(2))
	f.Add(uint64(9), uint8(6), uint16(17), uint8(1), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, c uint8, start uint16, sr uint8, prev uint8) {
		var ps PathState
		i := int(c) % len(initPathCases)
		j := int(prev) % len(initPathCases)
		initPathCases[j].m.InitPath(&ps, rng(^seed), 0, SpeedRange{})
		ps.NextHop()
		checkInitPath(t, &ps, i, seed, topology.CellID(int(start)%initPathCases[i].cells), initPathSpeeds[int(sr)%len(initPathSpeeds)])
	})
}
