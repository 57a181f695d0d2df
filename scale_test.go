package cbes_test

// Scale tests and benchmarks for the structured-topology simulator path:
// 1k/5k-node fat trees built algebraically (no stored route table),
// driven end to end through vcluster + simnet + mpisim. These gate the
// "scale the simulator to 5k nodes" work — the build benchmarks live in
// internal/cluster; here the whole stack runs.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"cbes/internal/cluster"
	"cbes/internal/des"
	"cbes/internal/mpisim"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

// runHaloOnFatTree builds a k-ary fat tree, spreads `ranks` ranks across
// distinct nodes with a seeded shuffle, and runs the 2D halo workload.
func runHaloOnFatTree(k, ranks int, seed int64) *mpisim.Result {
	topo := cluster.NewFatTree(cluster.FatTreeSpec{K: k, Archs: []cluster.Arch{cluster.ArchAlpha, cluster.ArchIntel}})
	eng := des.NewEngine()
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	rng := rand.New(rand.NewSource(seed))
	mapping := rng.Perm(topo.NumNodes())[:ranks]
	prog := workloads.Halo2D(workloads.Halo2DConfig{Ranks: ranks, Iterations: 3, MsgSize: 16 << 10, ComputePerIter: 0.002})
	return mpisim.Run(vc, net, mapping, prog.Body, prog.Options())
}

// BenchmarkFatTreeApplicationRun1k runs the halo workload on a 1024-node
// fat tree (k = 16). It stays in -short runs, which makes `make
// bench-quick` the 1k-node build+run smoke under -race.
func BenchmarkFatTreeApplicationRun1k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := runHaloOnFatTree(16, 256, int64(i))
		if res.Elapsed <= 0 {
			b.Fatal("no simulated time elapsed")
		}
	}
}

// BenchmarkFatTreeApplicationRun5k runs the halo workload on a 5488-node
// fat tree (k = 28) — the acceptance benchmark for the 5k scaling work.
func BenchmarkFatTreeApplicationRun5k(b *testing.B) {
	skipSlowBench(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := runHaloOnFatTree(28, 1024, int64(i))
		if res.Elapsed <= 0 {
			b.Fatal("no simulated time elapsed")
		}
	}
}

// snapshotRun serializes everything observable about one seeded run on a
// 1k-node fat tree: elapsed time, message/byte counters, per-rank node
// busy time, and the busy accounting of every fabric link.
func snapshotRun(seed int64) string {
	topo := cluster.NewFatTree(cluster.FatTreeSpec{K: 16, Archs: []cluster.Arch{cluster.ArchAlpha, cluster.ArchIntel, cluster.ArchSPARC}})
	eng := des.NewEngine()
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	rng := rand.New(rand.NewSource(seed))
	mapping := rng.Perm(topo.NumNodes())[:256]
	// Background load on a few seeded nodes makes the snapshot sensitive
	// to CPU-sharing arithmetic, not just transport.
	for i := 0; i < 16; i++ {
		node := rng.Intn(topo.NumNodes())
		avail := 0.3 + 0.6*rng.Float64()
		eng.Schedule(0, func() { vc.SetAvailability(node, avail) })
	}
	prog := workloads.Halo2D(workloads.Halo2DConfig{Ranks: 256, Iterations: 3, MsgSize: 16 << 10, ComputePerIter: 0.002})
	res := mpisim.Run(vc, net, mapping, prog.Body, prog.Options())

	out := fmt.Sprintf("elapsed=%d messages=%d bytes=%d\n", res.Elapsed, net.Messages(), net.Bytes())
	for _, node := range mapping {
		out += fmt.Sprintf("node %d busy %.17g\n", node, vc.CPU(node).BusyRefSeconds())
	}
	for id := 0; id < topo.NumLinks(); id++ {
		if busy := net.LinkBusy(id); busy != 0 {
			out += fmt.Sprintf("link %d busy %d\n", id, busy)
		}
	}
	return out
}

// snapshotGolden is the SHA-256 of snapshotRun(7) as computed when every
// link and node record was a stored table entry and all simulator state
// was allocated up front. Coordinate-computed records and first-touch
// state must reproduce it: same events, same times, same busy accounting.
const snapshotGolden = "f1b8fb531212ebb3b0600b73a0922b9698f8edcf0750ea8b2413e79ab1f67835"

// TestFatTreeDeterminism1k pins byte-identical snapshots for a seeded
// 1k-node random workload across two independent runs — the determinism
// guarantee that makes 5k-scale experiments reproducible — and against
// the golden digest.
func TestFatTreeDeterminism1k(t *testing.T) {
	if testing.Short() {
		t.Skip("1k determinism run skipped in -short mode")
	}
	a := snapshotRun(7)
	b := snapshotRun(7)
	if a != b {
		t.Fatalf("two seeded runs diverged:\nrun1:\n%s\nrun2:\n%s", a, b)
	}
	if sum := sha256.Sum256([]byte(a)); hex.EncodeToString(sum[:]) != snapshotGolden {
		t.Fatalf("seed-7 snapshot digest %x, want %s", sum, snapshotGolden)
	}
	if c := snapshotRun(8); c == a {
		t.Fatal("different seeds produced identical snapshots — seeding inert?")
	}
}
