package remap

import (
	"errors"
	"math"
	"testing"

	"cbes/internal/core"
	"cbes/internal/monitor"
	"cbes/internal/schedule"
)

// crashSnap marks nodes down in an otherwise idle snapshot.
func crashSnap(n int, down ...int) *monitor.Snapshot {
	s := monitor.IdleSnapshot(n)
	s.Health = make([]monitor.Health, n)
	for _, i := range down {
		s.Health[i] = monitor.HealthDown
		s.AvailCPU[i] = 0
	}
	return s
}

// TestAdvisorEvacuatesDeadNode: a crashed node under the current mapping
// must force a remap onto healthy nodes regardless of migration cost or
// hysteresis — staying costs +Inf. Hysteresis would block the move: with
// cur = +Inf, gain > cur·hysteresisPct/100 reads +Inf > +Inf, so only its
// waiver lets the advisor evacuate.
func TestAdvisorEvacuatesDeadNode(t *testing.T) {
	f := newFixture(t)
	adv := &Advisor{Eval: f.eval, Pool: pool8(), MigrationCost: 1000}
	snap := crashSnap(f.topo.NumNodes(), 1)
	advice, err := adv.Evaluate(core.Mapping{0, 1, 2, 3}, 0.5, snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !advice.Remap {
		t.Fatal("mapping straddles a dead node: advisor must evacuate")
	}
	if !math.IsInf(advice.Current, 1) || !math.IsInf(advice.Gain, 1) {
		t.Fatalf("evacuation advice: Current = %v, Gain = %v, want +Inf", advice.Current, advice.Gain)
	}
	for rank, n := range advice.Mapping {
		if n == 1 {
			t.Fatalf("evacuation mapping still places rank %d on dead node 1", rank)
		}
	}
}

func TestAdvisorEvacuationInfeasiblePool(t *testing.T) {
	f := newFixture(t)
	// Pool of exactly 4 with one dead: 3 healthy slots for 4 ranks.
	adv := &Advisor{Eval: f.eval, Pool: []int{0, 1, 2, 3}}
	snap := crashSnap(f.topo.NumNodes(), 1)
	if _, err := adv.Evaluate(core.Mapping{0, 1, 2, 3}, 0.5, snap, 1); !errors.Is(err, schedule.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestAdvisorHealthyPathUnchangedByDownElsewhere(t *testing.T) {
	f := newFixture(t)
	adv := &Advisor{Eval: f.eval, Pool: pool8(), MigrationCost: 2}
	// Node 7 is down but the current mapping does not touch it.
	snap := crashSnap(f.topo.NumNodes(), 7)
	advice, err := adv.Evaluate(core.Mapping{0, 1, 2, 3}, 0.5, snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if advice.Remap {
		t.Fatalf("good mapping, fault elsewhere: should stay (gain %v)", advice.Gain)
	}
	if math.IsInf(advice.Current, 1) {
		t.Fatal("Current should be finite when the mapping avoids the dead node")
	}
}
