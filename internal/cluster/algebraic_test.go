package cluster

import (
	"strings"
	"testing"
)

// smallStructured returns the ≤64-node fat trees the property tests
// sweep.
var smallStructured = func() map[string]*Topology {
	mixed := []Arch{ArchAlpha, ArchIntel, ArchSPARC}
	return map[string]*Topology{
		"fattree-k2": NewFatTree(FatTreeSpec{K: 2, Archs: mixed}),
		"fattree-k4": NewFatTree(FatTreeSpec{K: 4, Archs: mixed}),
		"fattree-k6": NewFatTree(FatTreeSpec{K: 6}), // 54 nodes, uniform arch
	}
}()

// bfsDistances computes single-source shortest link counts over the
// node+switch fabric graph — the reference the algebraic routes must
// match.
func bfsDistances(t *Topology, src int) []int {
	nv := t.NumNodes() + t.NumSwitches()
	adj := make([][]int, nv)
	for id := 0; id < t.NumLinks(); id++ {
		l := t.Link(id)
		a, z := vertexID(t, l.A), vertexID(t, l.B)
		adj[a] = append(adj[a], z)
		adj[z] = append(adj[z], a)
	}
	dist := make([]int, nv)
	for i := range dist {
		dist[i] = -1
	}
	start := vertexID(t, Device{DevNode, src})
	dist[start] = 0
	queue := []int{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist[:t.NumNodes()]
}

// TestAlgebraicPathsWellFormed checks, for every ordered pair of every
// small structured instance, that the algebraic route is a connected
// device walk from src to dst, that Hops agrees with the materialized
// path, and that AppendPath reuses the caller's buffer.
func TestAlgebraicPathsWellFormed(t *testing.T) {
	for name, topo := range smallStructured {
		if topo.RouteMemoryMode() != "algebraic" {
			t.Fatalf("%s: expected algebraic routing", name)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		buf := make([]int, 0, 16)
		n := topo.NumNodes()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				buf = topo.AppendPath(buf[:0], i, j)
				if err := topo.checkPath(buf, i, j); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := topo.Hops(i, j); got != len(buf) {
					t.Fatalf("%s: Hops(%d,%d) = %d, path has %d links", name, i, j, got, len(buf))
				}
				if i == j && len(buf) != 0 {
					t.Fatalf("%s: loopback %d has non-empty path", name, i)
				}
			}
		}
	}
}

// TestAlgebraicRoutesMatchBFS pins the acceptance property: on small
// instances, fat-tree algebraic routes are exactly as long as BFS
// shortest paths over the link graph.
func TestAlgebraicRoutesMatchBFS(t *testing.T) {
	for name, topo := range smallStructured {
		n := topo.NumNodes()
		for i := 0; i < n; i++ {
			dist := bfsDistances(topo, i)
			for j := 0; j < n; j++ {
				if dist[j] < 0 {
					t.Fatalf("%s: node %d unreachable from %d", name, j, i)
				}
				if got := topo.Hops(i, j); got != dist[j] {
					t.Fatalf("%s: Hops(%d,%d) = %d, BFS shortest = %d", name, i, j, got, dist[j])
				}
			}
		}
	}
}

// TestClassSignatureMatchesPathWalk pins the interning equivalence: for
// every pair, the interned ClassSignature(ClassID(i,j)) must be
// byte-identical to the signature computed by walking the route — the
// same function that keyed the model before interning existed.
func TestClassSignatureMatchesPathWalk(t *testing.T) {
	topos := map[string]*Topology{"grove": NewOrangeGrove(), "centurion": NewCenturion(), "test": NewTestTopology()}
	for name, topo := range smallStructured {
		topos[name] = topo
	}
	for name, topo := range topos {
		n := topo.NumNodes()
		nc := topo.NumClasses()
		if nc == 0 {
			t.Fatalf("%s: no interned classes", name)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				id := topo.ClassID(i, j)
				if id < 0 || id >= nc {
					t.Fatalf("%s: ClassID(%d,%d) = %d out of [0,%d)", name, i, j, id, nc)
				}
				want := topo.pathSignature(i, j)
				if got := topo.ClassSignature(id); got != want {
					t.Fatalf("%s: class %d signature %q, path walk says %q", name, id, got, want)
				}
				if got := topo.PathSignature(i, j); got != want {
					t.Fatalf("%s: PathSignature(%d,%d) = %q, want %q", name, i, j, got, want)
				}
			}
		}
	}
}

// TestStructuredClassCountSmall keeps the O(N) calibration claim honest
// at scale: class counts depend on shape and arch mix, never on N.
func TestStructuredClassCountSmall(t *testing.T) {
	for name, topo := range smallStructured {
		seen := map[int]bool{}
		n := topo.NumNodes()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				seen[topo.ClassID(i, j)] = true
			}
		}
		if len(seen) > 64 {
			t.Fatalf("%s: %d used path classes for %d nodes — interning broken?", name, len(seen), n)
		}
	}
}

func TestFatTreeShape(t *testing.T) {
	for _, tc := range []struct{ k, nodes, switches, links int }{
		{4, 16, 20, 48}, // 8 edge + 8 agg + 4 core; 16 NIC + 16 ea + 16 ac
		{16, 1024, 320, 3072},
	} {
		topo := NewFatTree(FatTreeSpec{K: tc.k})
		if err := topo.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := topo.NumNodes(); got != tc.nodes {
			t.Fatalf("k=%d: %d nodes, want %d", tc.k, got, tc.nodes)
		}
		if got := topo.NumSwitches(); got != tc.switches {
			t.Fatalf("k=%d: %d switches, want %d", tc.k, got, tc.switches)
		}
		if got := topo.NumLinks(); got != tc.links {
			t.Fatalf("k=%d: %d links, want %d", tc.k, got, tc.links)
		}
		// Same-edge pairs: 2 hops; cross-pod pairs: 6.
		h := tc.k / 2
		if h >= 2 {
			if got := topo.Hops(0, 1); got != 2 {
				t.Fatalf("k=%d: same-edge hops %d, want 2", tc.k, got)
			}
		}
		if got := topo.Hops(0, tc.nodes-1); got != 6 {
			t.Fatalf("k=%d: cross-pod hops %d, want 6", tc.k, got)
		}
	}
}

func TestPrecomputedIndexes(t *testing.T) {
	for name, topo := range map[string]*Topology{
		"grove":   NewOrangeGrove(),
		"fattree": NewFatTree(FatTreeSpec{K: 4, Archs: []Arch{ArchAlpha, ArchIntel}}),
	} {
		// NodesByArch covers all nodes exactly once, in ID order.
		total := 0
		for _, a := range topo.Archs() {
			ids := topo.NodesByArch(a)
			total += len(ids)
			for k := 1; k < len(ids); k++ {
				if ids[k] <= ids[k-1] {
					t.Fatalf("%s: NodesByArch(%s) not increasing: %v", name, a, ids)
				}
			}
			for _, id := range ids {
				if topo.Node(id).Arch != a {
					t.Fatalf("%s: node %d in NodesByArch(%s) has arch %s", name, id, a, topo.Node(id).Arch)
				}
			}
			// Returned slices are copies: mutating one must not corrupt
			// the index.
			if len(ids) > 0 {
				ids[0] = -999
				if again := topo.NodesByArch(a); len(again) > 0 && again[0] == -999 {
					t.Fatalf("%s: NodesByArch returns a live index slice", name)
				}
			}
		}
		if total != topo.NumNodes() {
			t.Fatalf("%s: NodesByArch union %d nodes, want %d", name, total, topo.NumNodes())
		}
		// NodesOnSwitch matches the node records.
		for sw := 0; sw < topo.NumSwitches(); sw++ {
			for _, id := range topo.NodesOnSwitch(sw) {
				if topo.Node(id).Switch != sw {
					t.Fatalf("%s: node %d on switch %d per index, record says %d", name, id, sw, topo.Node(id).Switch)
				}
			}
		}
		// EdgeLink returns the node's NIC.
		for id := 0; id < topo.NumNodes(); id++ {
			lid := topo.EdgeLink(id)
			if lid < 0 {
				t.Fatalf("%s: node %d has no edge link", name, id)
			}
			l := topo.Link(lid)
			dev := Device{DevNode, id}
			if l.A != dev && l.B != dev {
				t.Fatalf("%s: EdgeLink(%d) = %d not incident to the node", name, id, lid)
			}
		}
	}
}

func TestFromSpec(t *testing.T) {
	for spec, wantNodes := range map[string]int{
		"grove":            28,
		"centurion":        128,
		"test":             8,
		"fattree:4":        16,
		"fattree:16@alpha": 1024,
	} {
		topo, err := FromSpec(spec)
		if err != nil {
			t.Fatalf("FromSpec(%q): %v", spec, err)
		}
		if got := topo.NumNodes(); got != wantNodes {
			t.Fatalf("FromSpec(%q): %d nodes, want %d", spec, got, wantNodes)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("FromSpec(%q): %v", spec, err)
		}
	}
	mix, err := FromSpec("fattree:4@alpha,intel,sparc")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(mix.Archs()); got != 3 {
		t.Fatalf("arch mix has %d architectures, want 3", got)
	}
	for _, bad := range []string{"", "fattree", "fattree:3", "fattree:4@vax"} {
		if _, err := FromSpec(bad); err == nil {
			t.Fatalf("FromSpec(%q) should fail", bad)
		}
	}
	// A topology kind FromSpec does not build is an unknown-spec error.
	for _, gone := range []string{"torus:4x4", "dragonfly:2x3x1", "ring:8"} {
		if _, err := FromSpec(gone); err == nil || !strings.Contains(err.Error(), "unknown topology spec") {
			t.Fatalf("FromSpec(%q) = %v, want an unknown topology spec error", gone, err)
		}
	}
}

// TestAlgebraicTopologyNoRouteTable asserts the structural point of the
// tentpole: algebraic topologies store no per-pair routing state.
func TestAlgebraicTopologyNoRouteTable(t *testing.T) {
	topo := NewFatTree(FatTreeSpec{K: 8})
	if topo.routes != nil {
		t.Fatal("fat tree carries a route table")
	}
	if topo.classIDs != nil {
		t.Fatal("fat tree carries a per-pair class table")
	}
	if topo.ClassIDTable() != nil {
		t.Fatal("ClassIDTable should be nil for algebraic topologies")
	}
	// Table-routed topologies keep both, as before.
	grove := NewOrangeGrove()
	if grove.routes == nil || grove.ClassIDTable() == nil {
		t.Fatal("grove lost its table routing")
	}
	if grove.RouteMemoryMode() != "table" {
		t.Fatal("grove should not be algebraic")
	}
}
