package golden

import (
	"testing"

	"cellqos/internal/audit"
	"cellqos/internal/experiments"
)

// corpusOpt is the corpus's fixed reduced scale. The exact values are
// part of the pinned contract: changing any of them regenerates every
// golden file and discards the accumulated drift signal, so treat edits
// here like golden-file edits — deliberate and reviewed.
func corpusOpt() experiments.Options {
	return experiments.Options{
		Duration:      400,
		TraceDuration: 300,
		Fig14Hours:    8, // through the §5.3 morning ramp; full days are for paper-scale runs
		Loads:         []float64{100, 300},
		Seed:          11,
		Audit:         &audit.Checker{EveryN: 64},
	}
}

// TestGoldenCorpus regenerates all 21 experiments at the corpus scale —
// with the invariant audit attached — and compares each Report.Bytes
// against its stored golden file. Any PR that changes simulation
// semantics, table formatting, or chart rendering fails here with the
// first diverging line; intentional changes regenerate via -update.
func TestGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus regenerates every experiment")
	}
	all := experiments.All()
	if len(all) != 21 {
		t.Fatalf("experiment registry has %d entries, corpus expects 21 — extend the corpus deliberately", len(all))
	}
	for _, e := range all {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(corpusOpt())
			if err != nil {
				t.Fatal(err)
			}
			Check(t, e.ID, rep.Bytes())
		})
	}
}
