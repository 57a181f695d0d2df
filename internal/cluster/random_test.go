package cluster

import (
	"testing"
	"testing/quick"
)

func TestNewRandomValidAndDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := NewRandom(seed, RandomSpec{})
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b := NewRandom(seed, RandomSpec{})
		if a.NumNodes() != b.NumNodes() || a.NumLinks() != b.NumLinks() {
			t.Fatalf("seed %d: generator not deterministic", seed)
		}
	}
}

// Property: random topologies are fully routable with well-formed paths
// and coarse path-class structure.
func TestQuickRandomTopologies(t *testing.T) {
	prop := func(seed int64) bool {
		topo := NewRandom(seed, RandomSpec{MaxSwitches: 5, MaxNodesPerSwitch: 5})
		if topo.Validate() != nil {
			return false
		}
		n := topo.NumNodes()
		classes := map[string]bool{}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if len(topo.Path(i, j)) < 2 {
					return false // at least node-sw, sw-node
				}
				classes[topo.PathSignature(i, j)] = true
			}
		}
		// Classes must never exceed pairs (and are usually far fewer).
		return len(classes) <= n*(n-1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
