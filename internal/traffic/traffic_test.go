package traffic

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0)) }

func TestMixSampleRatios(t *testing.T) {
	r := rng(1)
	for _, rvo := range []float64{1.0, 0.8, 0.5, 0.0} {
		m := Mix{VoiceRatio: rvo}
		voice := 0
		const n = 50000
		for i := 0; i < n; i++ {
			c := m.Sample(r)
			if c.Bandwidth != Voice.Bandwidth && c.Bandwidth != Video.Bandwidth {
				t.Fatalf("unknown class %+v", c)
			}
			if c == Voice {
				voice++
			}
		}
		got := float64(voice) / n
		if math.Abs(got-rvo) > 0.01 {
			t.Fatalf("R_vo=%v: sampled voice fraction %v", rvo, got)
		}
	}
}

func TestMixInvalidRatioPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("VoiceRatio=1.5 did not panic")
		}
	}()
	Mix{VoiceRatio: 1.5}.Sample(rng(2))
}

func TestMeanBandwidth(t *testing.T) {
	cases := []struct {
		rvo, want float64
	}{{1.0, 1}, {0.5, 2.5}, {0.8, 1.6}, {0.0, 4}}
	for _, c := range cases {
		if got := (Mix{VoiceRatio: c.rvo}).MeanBandwidth(); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("MeanBandwidth(R_vo=%v) = %v, want %v", c.rvo, got, c.want)
		}
	}
}

func TestRateForLoadEq7(t *testing.T) {
	// Paper Eq. 7: L = λ·E[b]·120. For R_vo=1, L=300 ⇒ λ=2.5.
	got := RateForLoad(300, Mix{VoiceRatio: 1}, MeanLifetime)
	if math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("λ = %v, want 2.5", got)
	}
	// R_vo=0.5 ⇒ E[b]=2.5, L=300 ⇒ λ=1.
	got = RateForLoad(300, Mix{VoiceRatio: 0.5}, MeanLifetime)
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("λ = %v, want 1", got)
	}
}

func TestLoadRateRoundTrip(t *testing.T) {
	f := func(loadRaw uint16, rvoRaw uint8) bool {
		load := float64(loadRaw) / 100
		mix := Mix{VoiceRatio: float64(rvoRaw) / 255}
		lambda := RateForLoad(load, mix, MeanLifetime)
		return math.Abs(LoadForRate(lambda, mix, MeanLifetime)-load) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLifetimeMean(t *testing.T) {
	r := rng(3)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := Lifetime(r, MeanLifetime)
		if v < 0 {
			t.Fatalf("negative lifetime %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-MeanLifetime) > 1.5 {
		t.Fatalf("mean lifetime %v, want ≈ %v", mean, MeanLifetime)
	}
}

func TestLifetimeBadMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Lifetime(mean=0) did not panic")
		}
	}()
	Lifetime(rng(4), 0)
}

func TestConstantSchedule(t *testing.T) {
	c := Constant{Lambda: 2.5, MinKmh: 80, MaxKmh: 120}
	if c.Rate(0) != 2.5 || c.Rate(1e9) != 2.5 {
		t.Fatal("constant rate varies")
	}
	lo, hi := c.Speed(42)
	if lo != 80 || hi != 120 {
		t.Fatalf("Speed = %v,%v", lo, hi)
	}
	if _, ok := c.NextChange(0); ok {
		t.Fatal("constant schedule reported a change")
	}
}

func TestNextArrivalConstantRateMean(t *testing.T) {
	r := rng(5)
	sched := Constant{Lambda: 2.0}
	now, count := 0.0, 0
	for now < 10000 {
		next, ok := NextArrival(r, sched, now)
		if !ok {
			t.Fatal("constant positive rate reported no arrivals")
		}
		if next <= now {
			t.Fatalf("non-increasing arrival %v after %v", next, now)
		}
		now = next
		count++
	}
	rate := float64(count) / 10000
	if math.Abs(rate-2.0) > 0.05 {
		t.Fatalf("empirical rate %v, want ≈ 2", rate)
	}
}

func TestNextArrivalZeroRate(t *testing.T) {
	if _, ok := NextArrival(rng(6), Constant{Lambda: 0}, 0); ok {
		t.Fatal("zero-rate schedule produced an arrival")
	}
}

func TestNextArrivalPiecewiseRespectsBoundaries(t *testing.T) {
	// An hour of zero load followed by load: first arrival must land
	// after the boundary.
	var hours [24]HourSpec
	for i := range hours {
		hours[i] = HourSpec{Load: 0, MeanKmh: 100, SpreadKmh: 20}
	}
	hours[1] = HourSpec{Load: 120, MeanKmh: 50, SpreadKmh: 20}
	d := NewDaily(hours, Mix{VoiceRatio: 1}, MeanLifetime)
	r := rng(7)
	for i := 0; i < 100; i++ {
		at, ok := NextArrival(r, d, 0)
		if !ok {
			t.Fatal("no arrival despite hour-1 load")
		}
		if at < SecondsPerHour || at >= 2*SecondsPerHour {
			t.Fatalf("arrival %v outside loaded hour [3600,7200)", at)
		}
	}
}

func TestNextArrivalPiecewiseRate(t *testing.T) {
	// Empirical rate during a loaded hour should match Eq. 7.
	var hours [24]HourSpec
	for i := range hours {
		hours[i] = HourSpec{Load: 120, MeanKmh: 100, SpreadKmh: 20}
	}
	d := NewDaily(hours, Mix{VoiceRatio: 1}, MeanLifetime) // λ = 1/s
	r := rng(8)
	now, count := 0.0, 0
	for now < 20000 {
		next, ok := NextArrival(r, d, now)
		if !ok {
			t.Fatal("no arrival")
		}
		now = next
		count++
	}
	rate := float64(count) / 20000
	if math.Abs(rate-1.0) > 0.03 {
		t.Fatalf("empirical rate %v, want ≈ 1", rate)
	}
}

func TestDailyHourLookup(t *testing.T) {
	d := PaperDay(Mix{VoiceRatio: 1}, MeanLifetime)
	// 9 a.m. is the morning peak: load 180, mean speed 30.
	lo, hi := d.Speed(9*SecondsPerHour + 10)
	if lo != 10 || hi != 50 {
		t.Fatalf("9am speed range = [%v,%v], want [10,50]", lo, hi)
	}
	if got := d.Rate(9*SecondsPerHour + 10); math.Abs(got-180.0/120) > 1e-12 {
		t.Fatalf("9am rate = %v, want 1.5", got)
	}
	// Second day repeats the first.
	if d.Rate(9*SecondsPerHour) != d.Rate(SecondsPerDay+9*SecondsPerHour) {
		t.Fatal("daily schedule does not repeat")
	}
}

func TestDailyNextChangeIsTopOfHour(t *testing.T) {
	d := PaperDay(Mix{VoiceRatio: 1}, MeanLifetime)
	at, ok := d.NextChange(3600.5)
	if !ok || at != 7200 {
		t.Fatalf("NextChange(3600.5) = %v,%v want 7200,true", at, ok)
	}
	at, _ = d.NextChange(7200)
	if at != 10800 {
		t.Fatalf("NextChange at boundary = %v, want strictly-after 10800", at)
	}
}

func TestPaperDayShape(t *testing.T) {
	d := PaperDay(Mix{VoiceRatio: 1}, MeanLifetime)
	// Peaks at 9 and 17, quiet at 3.
	if !(d.Hour(9).Load > d.Hour(7).Load && d.Hour(9).Load > d.Hour(11).Load) {
		t.Fatal("9am is not a local load peak")
	}
	if !(d.Hour(17).Load > d.Hour(15).Load && d.Hour(17).Load > d.Hour(20).Load) {
		t.Fatal("5pm is not a local load peak")
	}
	if d.Hour(3).Load >= 50 {
		t.Fatal("night load not quiet")
	}
	// Peak-hour speeds are depressed (rush-hour congestion).
	if d.Hour(9).MeanKmh >= d.Hour(3).MeanKmh {
		t.Fatal("peak-hour speed not below night speed")
	}
}

func TestRetryPolicyPaper(t *testing.T) {
	r := rng(9)
	p := PaperRetry
	// First block (nRet=1): retry prob 0.9.
	retries := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if p.ShouldRetry(r, 1) {
			retries++
		}
	}
	got := float64(retries) / n
	if math.Abs(got-0.9) > 0.01 {
		t.Fatalf("retry prob at nRet=1: %v, want 0.9", got)
	}
	// nRet=10 ⇒ prob 0: never retry.
	for i := 0; i < 1000; i++ {
		if p.ShouldRetry(r, 10) {
			t.Fatal("retried at nRet=10 (prob 0)")
		}
	}
}

func TestRetryPolicyDisabled(t *testing.T) {
	p := RetryPolicy{}
	if p.ShouldRetry(rng(10), 1) {
		t.Fatal("disabled policy retried")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("disabled policy invalid: %v", err)
	}
}

func TestRetryPolicyValidate(t *testing.T) {
	bad := RetryPolicy{WaitSeconds: -1, DecayPerTry: 0.1}
	if bad.Validate() == nil {
		t.Fatal("negative wait validated")
	}
	bad = RetryPolicy{WaitSeconds: 5, DecayPerTry: 0}
	if bad.Validate() == nil {
		t.Fatal("zero decay validated")
	}
	bad = RetryPolicy{WaitSeconds: 5, DecayPerTry: math.NaN()}
	if bad.Validate() == nil {
		t.Fatal("NaN decay validated")
	}
	if PaperRetry.Validate() != nil {
		t.Fatal("paper policy invalid")
	}
}

// Property: retry probability is non-increasing in nRet.
func TestPropertyRetryMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng(seed)
		p := PaperRetry
		const trials = 2000
		prev := 1.0
		for nRet := 1; nRet <= 11; nRet++ {
			c := 0
			for i := 0; i < trials; i++ {
				if p.ShouldRetry(r, nRet) {
					c++
				}
			}
			frac := float64(c) / trials
			if frac > prev+0.05 {
				return false
			}
			prev = frac
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: NextArrival is strictly increasing and finite for any daily
// schedule hour pattern with at least one loaded hour.
func TestPropertyNextArrivalProgress(t *testing.T) {
	f := func(seed uint64, loads [24]uint8) bool {
		var hours [24]HourSpec
		any := false
		for i, l := range loads {
			hours[i] = HourSpec{Load: float64(l), MeanKmh: 60, SpreadKmh: 20}
			if l > 0 {
				any = true
			}
		}
		if !any {
			hours[0].Load = 10
		}
		d := NewDaily(hours, Mix{VoiceRatio: 0.8}, MeanLifetime)
		r := rng(seed)
		now := 0.0
		for i := 0; i < 200; i++ {
			next, ok := NextArrival(r, d, now)
			if !ok || next <= now || math.IsInf(next, 0) || math.IsNaN(next) {
				return false
			}
			now = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
