package core

import (
	"testing"

	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

func TestElasticGrantClampsToRoom(t *testing.T) {
	e := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("none")})
	e.AddConnection(1, ConnSpec{Min: 7, Prev: topology.Self}, 0)
	grant := e.AddConnection(2, ConnSpec{Min: 1, Max: 4, Prev: topology.Self}, 0)
	if grant != 3 {
		t.Fatalf("grant = %d, want clamped 3", grant)
	}
	if e.UsedBandwidth() != 10 {
		t.Fatalf("used = %d", e.UsedBandwidth())
	}
}

func TestElasticGrantFullWhenRoom(t *testing.T) {
	e := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("none")})
	if grant := e.AddConnection(1, ConnSpec{Min: 1, Max: 4, Prev: topology.Self}, 0); grant != 4 {
		t.Fatalf("grant = %d, want 4", grant)
	}
}

func TestElasticMinOverCapacityPanics(t *testing.T) {
	e := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("none")})
	e.AddConnection(1, ConnSpec{Min: 10, Prev: topology.Self}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("elastic min over capacity did not panic")
		}
	}()
	e.AddConnection(2, ConnSpec{Min: 1, Max: 4, Prev: topology.Self}, 0)
}

func TestDowngradeToFit(t *testing.T) {
	e := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("none")})
	e.AddConnection(1, ConnSpec{Min: 1, Max: 4, Prev: topology.Self}, 0) // granted 4
	e.AddConnection(2, ConnSpec{Min: 2, Max: 6, Prev: topology.Self}, 0) // granted 6
	// A 4-BU hand-off needs 4 BUs: degrade 10 → 6.
	if !e.DowngradeToFit(4) {
		t.Fatal("downgrade failed despite 7 reclaimable BUs")
	}
	if e.UsedBandwidth() != 6 {
		t.Fatalf("used after downgrade = %d, want 6", e.UsedBandwidth())
	}
	if !e.AdmitHandOff(4) {
		t.Fatal("hand-off still refused after downgrade")
	}
	e.AddConnection(3, ConnSpec{Min: 4, Prev: 1}, 1)
	if e.DegradedBandwidth() != 4 {
		t.Fatalf("degraded = %d, want 4", e.DegradedBandwidth())
	}
	if down := e.Ledger().QoSDowngrades; down != 1 {
		t.Fatalf("downgrade events = %d", down)
	}
}

func TestDowngradeAllOrNothing(t *testing.T) {
	e := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("none")})
	e.AddConnection(1, ConnSpec{Min: 3, Max: 4, Prev: topology.Self}, 0) // 1 reclaimable
	e.AddConnection(2, ConnSpec{Min: 6, Prev: topology.Self}, 0)
	before := e.UsedBandwidth()
	if e.DowngradeToFit(3) {
		t.Fatal("impossible downgrade succeeded")
	}
	if e.UsedBandwidth() != before {
		t.Fatal("failed downgrade mutated grants")
	}
}

func TestDowngradeNoopWhenFits(t *testing.T) {
	e := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("none")})
	e.AddConnection(1, ConnSpec{Min: 1, Max: 4, Prev: topology.Self}, 0)
	if !e.DowngradeToFit(2) {
		t.Fatal("fit refused")
	}
	if e.UsedBandwidth() != 4 {
		t.Fatal("needless downgrade happened")
	}
	if e.Ledger().QoSDowngrades != 0 {
		t.Fatal("noop counted as downgrade")
	}
}

func TestRedistributeFreeRespectsReservation(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	e.AddConnection(1, ConnSpec{Min: 1, Max: 40, Prev: topology.Self}, 0) // granted 40
	e.DowngradeToFit(99)                                                  // short = 40+99−100 = 39 → degrade to the 1-BU minimum
	if e.UsedBandwidth() != 1 {
		t.Fatalf("setup: used = %d, want 1", e.UsedBandwidth())
	}
	// Pretend a previous Eq. 6 run reserved 70 BUs.
	p := &fakePeers{outgoing: map[topology.LocalIndex]float64{1: 35, 2: 35}}
	e.ComputeTargetReservation(0, p)
	restored := e.RedistributeFree()
	// Headroom = 100 − 70 = 30; used 1 → can restore 29.
	if restored != 29 {
		t.Fatalf("restored = %d, want 29", restored)
	}
	if e.UsedBandwidth() != 30 {
		t.Fatalf("used = %d, want 30", e.UsedBandwidth())
	}
	if e.Ledger().QoSUpgrades != 1 {
		t.Fatal("upgrade event not counted")
	}
}

func TestElasticReservationUsesMinQoS(t *testing.T) {
	// §1: "bandwidth reservation is made on the basis of the minimum QoS
	// of each connection".
	e := NewEngine(adaptiveConfig("AC1"))
	e.RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 50})
	e.AddConnection(1, ConnSpec{Min: 1, Max: 4, Prev: topology.Self}, 10) // granted 4, min 1
	if got := e.OutgoingReservation(20, 1, 100); got != 1 {
		t.Fatalf("Eq.5 contribution = %v, want min QoS 1", got)
	}
}

func TestElasticRemoveFreesCurrentGrant(t *testing.T) {
	e := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("none")})
	e.AddConnection(1, ConnSpec{Min: 2, Max: 8, Prev: topology.Self}, 0)
	e.RemoveConnection(1)
	if e.UsedBandwidth() != 0 {
		t.Fatalf("used = %d after remove", e.UsedBandwidth())
	}
}
