package cluster

import "testing"

// BenchmarkTopologyBuild1k builds a 1024-node fat tree (k = 16) per
// iteration. Runs under -short so bench-quick smokes it.
func BenchmarkTopologyBuild1k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo := NewFatTree(FatTreeSpec{K: 16, Archs: []Arch{ArchAlpha, ArchIntel}})
		if topo.NumNodes() != 1024 {
			b.Fatal("wrong node count")
		}
	}
}

// BenchmarkTopologyBuild5k builds a 5488-node fat tree (k = 28) per
// iteration. Its bytes/op value is the regression gate asserting no
// O(N²) route table is allocated: a stored table at this size would be
// ≥ 5488² route slices (hundreds of MB), while the algebraic build only
// spells its class signatures (~4 kB).
func BenchmarkTopologyBuild5k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo := NewFatTree(FatTreeSpec{K: 28, Archs: []Arch{ArchAlpha, ArchIntel, ArchSPARC}})
		if topo.NumNodes() != 5488 {
			b.Fatal("wrong node count")
		}
	}
}

// TestBuild5kNoRouteTable pins the memory claim directly: a 5k-node
// structured build must not materialize per-pair state.
func TestBuild5kNoRouteTable(t *testing.T) {
	if testing.Short() {
		t.Skip("5k build in -short mode")
	}
	topo := NewFatTree(FatTreeSpec{K: 28})
	if topo.routes != nil || topo.classIDs != nil || topo.ClassIDTable() != nil {
		t.Fatal("5k fat tree stored per-pair route state")
	}
	if got := topo.RouteMemoryMode(); got != "algebraic" {
		t.Fatalf("RouteMemoryMode = %q, want algebraic", got)
	}
}
