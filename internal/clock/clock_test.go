package clock_test

import (
	"testing"
	"time"

	"cellqos/internal/clock"
)

// TestWallMonotone: Wall produces non-decreasing instants and Since
// measures against the same source.
func TestWallMonotone(t *testing.T) {
	w := clock.Wall{}
	a := w.Now()
	b := w.Now()
	if b.Before(a) {
		t.Fatalf("Wall.Now went backward: %v then %v", a, b)
	}
	if d := w.Since(a); d < 0 {
		t.Fatalf("Wall.Since negative: %v", d)
	}
}

// TestManual: the clock moves only on Advance/Sleep, and Since is
// computed against the frozen instant.
func TestManual(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := clock.NewManual(epoch)
	if got := m.Now(); !got.Equal(epoch) {
		t.Fatalf("Now = %v, want %v", got, epoch)
	}
	m.Advance(3 * time.Second)
	m.Sleep(2 * time.Second) // Sleep advances, never blocks
	if got := m.Since(epoch); got != 5*time.Second {
		t.Fatalf("Since(epoch) = %v, want 5s", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	m.Advance(-time.Second)
}
