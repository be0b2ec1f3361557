package core

import (
	"math"
	"testing"

	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// FuzzIncrementalBr decodes an event stream from the fuzz input and
// drives the materialized Eq. 5 view through it, cross-checking every
// reservation answer against the retained from-scratch oracle
// (eq5Scratch) and re-certifying the view after each event. The
// encoding is one opcode byte followed by payload bytes, all reduced
// modulo their valid ranges, so any byte string is a valid program —
// the fuzzer explores event orderings and timings the seeded property
// test's distribution never draws.
func FuzzIncrementalBr(f *testing.F) {
	// Seeds: an add/query/advance burst, a remove-heavy stream, a
	// record-then-query-at-equal-now stream, and an evict storm.
	f.Add([]byte{0, 10, 1, 0x80, 5, 2, 4, 3, 5, 2, 12})
	f.Add([]byte{0, 3, 0, 20, 1, 9, 5, 0, 2, 200, 1, 40, 5, 1})
	f.Add([]byte{3, 30, 5, 0, 3, 31, 5, 0, 3, 32, 5, 1})
	f.Add([]byte{0, 4, 4, 100, 5, 0, 4, 1, 5, 1, 4, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		const degree = 4
		cfg := Config{
			Capacity: 120, Degree: degree, Admission: MustPolicy("AC1"),
			PHDTarget: 0.01, TStart: 1,
			Estimation: predict.Config{Tint: 40, Period: 200, NwinPeriods: 1, NQuad: 30, RebuildEvery: 5},
		}
		e := NewEngine(cfg)
		now := 0.0
		var live []ConnID
		nextID := ConnID(1)
		windows := []float64{5, 12.5, 30}

		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		check := func(toward topology.LocalIndex, test float64) {
			got := e.OutgoingReservation(now, toward, test)
			want := e.eq5Scratch(now, toward, test)
			if math.Abs(got-want) > eq5PropTolerance {
				t.Fatalf("OutgoingReservation(now=%v, toward=%d, test=%v) = %v, from-scratch = %v",
					now, toward, test, got, want)
			}
			if diff, checked := e.VerifyEq5Cache(); checked && diff > eq5PropTolerance {
				t.Fatalf("VerifyEq5Cache divergence %v at now=%v", diff, now)
			}
		}

		for len(data) > 0 {
			switch next() % 6 {
			case 0: // add
				b := next()
				min := 1 + int(b%5)
				if e.used+min > cfg.Capacity {
					continue
				}
				spec := ConnSpec{Min: min, Prev: topology.LocalIndex(int(b>>3) % (degree + 1))}
				if b&0x80 != 0 {
					spec.Hint = topology.LocalIndex(1 + int(next())%degree)
				}
				e.AddConnection(nextID, spec, now)
				live = append(live, nextID)
				nextID++
			case 1: // remove
				if len(live) == 0 {
					continue
				}
				i := int(next()) % len(live)
				id := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				e.RemoveConnection(id)
			case 2: // clock advance (quantized so equal timestamps recur)
				now += float64(next()) / 8
			case 3: // record a departure quadruplet
				b := next()
				e.RecordDeparture(predict.Quadruplet{
					Event:   now,
					Prev:    topology.LocalIndex(int(b) % (degree + 1)),
					Next:    topology.LocalIndex(1 + int(b>>4)%degree),
					Sojourn: float64(next()) / 4,
				})
			case 4: // evict history
				e.est.EvictBefore(now - float64(next()))
			case 5: // query + certify
				b := next()
				check(topology.LocalIndex(1+int(b)%degree), windows[int(b>>4)%len(windows)])
			}
		}
		// Whatever the stream did, a final fan-out must agree everywhere.
		for toward := topology.LocalIndex(1); int(toward) <= degree; toward++ {
			check(toward, windows[0])
		}
	})
}
