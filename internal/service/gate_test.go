package service

import (
	"testing"
	"time"

	"cellqos/internal/clock"
)

func TestGateShedsWhenEmpty(t *testing.T) {
	mc := clock.NewManual(time.Unix(0, 0))
	g := NewGate(3, 1, mc)
	for i := 0; i < 3; i++ {
		if !g.Allow() {
			t.Fatalf("request %d shed with tokens left", i)
		}
	}
	if g.Allow() {
		t.Fatal("request passed an empty bucket")
	}
}

func TestGateRefillsOnClock(t *testing.T) {
	mc := clock.NewManual(time.Unix(0, 0))
	g := NewGate(3, 1, mc) // 1 token/s
	for i := 0; i < 3; i++ {
		g.Allow()
	}
	if g.Allow() {
		t.Fatal("empty bucket allowed without time passing")
	}
	mc.Advance(2 * time.Second)
	if !g.Allow() || !g.Allow() {
		t.Fatal("2 s at 1 token/s should refill 2 tokens")
	}
	if g.Allow() {
		t.Fatal("third request passed after a 2-token refill")
	}
}

func TestGateRefillCapsAtCapacity(t *testing.T) {
	mc := clock.NewManual(time.Unix(0, 0))
	g := NewGate(3, 1, mc)
	for i := 0; i < 3; i++ {
		g.Allow()
	}
	mc.Advance(time.Hour) // far more than capacity's worth
	allowed := 0
	for i := 0; i < 10; i++ {
		if g.Allow() {
			allowed++
		}
	}
	if allowed != 3 {
		t.Fatalf("allowed %d after a long idle, want capacity 3", allowed)
	}
}

func TestGateDisabled(t *testing.T) {
	if NewGate(0, 1, nil) != nil || NewGate(1, 0, nil) != nil {
		t.Fatal("non-positive parameters should disable the gate")
	}
	var g *Gate
	for i := 0; i < 100; i++ {
		if !g.Allow() {
			t.Fatal("nil gate shed a request")
		}
	}
}
