package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"cbes/internal/cluster"
	"cbes/internal/des"
	"cbes/internal/mpisim"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

// traceGolden is the SHA-256 of goldenTraces' output as computed when the
// recorder counted message groups in per-rank maps and sorted them with
// sort.Slice. It pins the encoded trace byte for byte: segment bounds,
// X/O/B, group order, and [] for a rank with no groups.
const traceGolden = "9af9fe489d3268eb0c8d1d031a92d2b2361a5af845df325e56c18b2c36baf79b"

// goldenTraces runs LU.A.8 on a seeded Orange Grove mapping under seeded
// background load, then a four-segment ring, then a three-rank exchange in
// which rank 2 never talks, and returns the three traces JSON-encoded.
func goldenTraces() []byte {
	topo := cluster.NewOrangeGrove()
	eng := des.NewEngine()
	vc, net := vcluster.New(eng, topo), simnet.New(eng, topo)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6; i++ {
		node, avail := rng.Intn(topo.NumNodes()), 0.3+0.6*rng.Float64()
		eng.Schedule(des.Time(rng.Intn(2000))*des.Millisecond, func() { vc.SetAvailability(node, avail) })
	}
	quiet := workloads.Program{Name: "quiet", Ranks: 3, Body: func(r *mpisim.Rank) {
		r.Compute(0.01)
		switch r.ID() {
		case 0:
			r.Send(1, 4096)
			r.Send(1, 512)
		case 1:
			r.Recv(0)
			r.Recv(0)
		}
	}}
	var out bytes.Buffer
	for _, prog := range []workloads.Program{workloads.LU(workloads.ClassA, 8), workloads.Phased(3, 4), quiet} {
		mapping := rng.Perm(topo.NumNodes())[:prog.Ranks]
		if err := mpisim.Run(vc, net, mapping, prog.Body, prog.Options()).Trace.Encode(&out); err != nil {
			panic(err)
		}
	}
	eng.Shutdown()
	return out.Bytes()
}

// TestTraceGolden holds the encoding of two seeded runs' traces against the
// digest the map-based recorder produced.
func TestTraceGolden(t *testing.T) {
	enc := goldenTraces()
	if !strings.Contains(string(enc), `"sends":[]`) {
		t.Fatal("no rank encodes an empty group list; the golden no longer pins []")
	}
	if sum := sha256.Sum256(enc); hex.EncodeToString(sum[:]) != traceGolden {
		t.Fatalf("encoded traces digest %x, want %s", sum, traceGolden)
	}
}
