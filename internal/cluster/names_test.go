package cluster

import (
	"fmt"
	"testing"
)

// The structured builders once spelled every name with fmt.Sprintf. These
// tests rebuild those spellings from the documented ID arithmetic and
// require the arena-built names to equal them byte for byte.

func checkNames(t *testing.T, kind string, got func(i int) string, want []string) {
	t.Helper()
	for i, w := range want {
		if g := got(i); g != w {
			t.Errorf("%s %d named %q, want %q", kind, i, g, w)
		}
	}
}

func checkTopologyNames(t *testing.T, topo *Topology, switches, nodes, links []string) {
	t.Helper()
	if len(switches) != len(topo.Switches) || len(nodes) != len(topo.Nodes) || len(links) != len(topo.Links) {
		t.Fatalf("%s: expected %d/%d/%d switch/node/link names, topology has %d/%d/%d", topo.Name,
			len(switches), len(nodes), len(links), len(topo.Switches), len(topo.Nodes), len(topo.Links))
	}
	checkNames(t, topo.Name+" switch", func(i int) string { return topo.Switches[i].Name }, switches)
	checkNames(t, topo.Name+" node", func(i int) string { return topo.Nodes[i].Name }, nodes)
	checkNames(t, topo.Name+" link", func(i int) string { return topo.Links[i].Name }, links)
}

func TestFatTreeNamesKeepFmtSpelling(t *testing.T) {
	const k, h = 4, 2
	var switches, nodes, links []string
	for _, tier := range []string{"ft-edge-p%d-e%d", "ft-agg-p%d-a%d"} {
		for p := 0; p < k; p++ {
			for i := 0; i < h; i++ {
				switches = append(switches, fmt.Sprintf(tier, p, i))
			}
		}
	}
	for a := 0; a < h; a++ {
		for j := 0; j < h; j++ {
			switches = append(switches, fmt.Sprintf("ft-core-a%d-j%d", a, j))
		}
	}
	for id := 0; id < k*h*h; id++ {
		nodes = append(nodes, fmt.Sprintf("ft-n%04d", id))
		links = append(links, fmt.Sprintf("ft-n%04d<->edge%d", id, id/h))
	}
	for _, tier := range []string{"ft-ea-p%d-e%d-a%d", "ft-ac-p%d-a%d-j%d"} {
		for p := 0; p < k; p++ {
			for i := 0; i < h; i++ {
				for j := 0; j < h; j++ {
					links = append(links, fmt.Sprintf(tier, p, i, j))
				}
			}
		}
	}
	topo, err := FromSpec("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	checkTopologyNames(t, topo, switches, nodes, links)
}

func TestTorusNamesKeepFmtSpelling(t *testing.T) {
	const X, Y, Z = 3, 2, 4 // a 2-ring has one link, a 3- or 4-ring one per position
	var switches, nodes, links []string
	for x := 0; x < X; x++ {
		for y := 0; y < Y; y++ {
			for z := 0; z < Z; z++ {
				id := (x*Y+y)*Z + z
				switches = append(switches, fmt.Sprintf("tor-sw-%d-%d-%d", x, y, z))
				nodes = append(nodes, fmt.Sprintf("tor-n%04d", id))
				links = append(links, fmt.Sprintf("tor-n%04d<->sw", id))
			}
		}
	}
	ring := func(format string, count, a, b int) {
		for i := 0; i < count; i++ {
			for aa := 0; aa < a; aa++ {
				for bb := 0; bb < b; bb++ {
					links = append(links, fmt.Sprintf(format, i, aa, bb))
				}
			}
		}
	}
	ring("tor-x%d-y%d-z%d", ringLinks(X), Y, Z)
	ring("tor-y%d-x%d-z%d", ringLinks(Y), X, Z)
	ring("tor-z%d-x%d-y%d", ringLinks(Z), X, Y)
	checkTopologyNames(t, NewTorus(TorusSpec{X: X, Y: Y, Z: Z}), switches, nodes, links)
}

func TestDragonflyNamesKeepFmtSpelling(t *testing.T) {
	const p, a, h, g = 2, 3, 1, 4
	var switches, nodes, links []string
	for gi := 0; gi < g; gi++ {
		for ri := 0; ri < a; ri++ {
			switches = append(switches, fmt.Sprintf("df-g%d-r%d", gi, ri))
		}
	}
	for id := 0; id < g*a*p; id++ {
		nodes = append(nodes, fmt.Sprintf("df-n%04d", id))
		links = append(links, fmt.Sprintf("df-n%04d<->r%d", id, id/p))
	}
	for gi := 0; gi < g; gi++ {
		for i := 0; i < a; i++ {
			for j := i + 1; j < a; j++ {
				links = append(links, fmt.Sprintf("df-local-g%d-%d-%d", gi, i, j))
			}
		}
	}
	for gi := 0; gi < g; gi++ {
		for gj := gi + 1; gj < g; gj++ {
			links = append(links, fmt.Sprintf("df-global-g%d-g%d", gi, gj))
		}
	}
	checkTopologyNames(t, NewDragonfly(DragonflySpec{P: p, A: a, H: h, Groups: g}), switches, nodes, links)
}

// TestNameArenaDigits covers the widths no small topology reaches, and a
// reservation far too small, so names are handed out across buffer moves.
func TestNameArenaDigits(t *testing.T) {
	names := newNameArena(1)
	vals := []int{0, 7, 42, 999, 1000, 9999, 10000, 5487, 123456}
	var got, want []string
	for _, v := range vals {
		got = append(got, names.s("n").d4(v).s("<->sw").d(v).end())
		want = append(want, fmt.Sprintf("n%04d<->sw%d", v, v))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("value %d spelled %q, want %q", vals[i], got[i], want[i])
		}
	}
}

// TestBuild5kAllocations: the 5 488-node build made 37 587 allocations when
// each of its ~23 000 names was a Sprintf; the arena must save > 20 000.
func TestBuild5kAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("5k build in -short mode")
	}
	allocs := testing.AllocsPerRun(2, func() {
		NewFatTree(FatTreeSpec{K: 28, Archs: []Arch{ArchAlpha, ArchIntel, ArchSPARC}})
	})
	if allocs > 37587-20000 {
		t.Fatalf("NewFatTree{K:28} made %.0f allocations, want fewer than %d", allocs, 37587-20000)
	}
}
