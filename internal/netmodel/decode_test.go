package netmodel_test

import (
	"bytes"
	"math"
	"testing"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/netmodel"
)

// calibrated returns the test topology and its model as cbesd stores it.
func calibrated(tb testing.TB) (*cluster.Topology, *netmodel.Model) {
	tb.Helper()
	topo := cluster.NewTestTopology()
	return topo, bench.Calibrate(topo, bench.Options{Reps: 2})
}

// encodeWith encodes a deep copy of m after mutate has edited it.
func encodeWith(tb testing.TB, m *netmodel.Model, mutate func(*netmodel.Model)) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	q, err := netmodel.Decode(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	mutate(q)
	buf.Reset()
	if err := q.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// editClass applies edit to the class of the pair (0, 1).
func editClass(edit func(*netmodel.Class)) func(*netmodel.Model) {
	return func(m *netmodel.Model) {
		sig := cluster.NewTestTopology().PathSignature(0, 1)
		c := m.Classes[sig]
		edit(&c)
		m.Classes[sig] = c
	}
}

// hostileModels edit a stored model the way a corrupt or hand-edited file
// would. Each one used to load: a curve with more sizes than latencies
// panicked Curve.At, a repeated size made a latency +Inf, a negative
// coefficient made one negative, and a missing class panicked the core
// fast path.
var hostileModels = []struct {
	name   string
	mutate func(*netmodel.Model)
}{
	{"sizes outnumber lat", editClass(func(c *netmodel.Class) { c.Curve.Lat = c.Curve.Lat[:1] })},
	{"lat outnumbers sizes", editClass(func(c *netmodel.Class) { c.Curve.Sizes = c.Curve.Sizes[:1] })},
	{"empty curve", editClass(func(c *netmodel.Class) { c.Curve = netmodel.Curve{} })},
	{"repeated size", editClass(func(c *netmodel.Class) { c.Curve.Sizes[1] = c.Curve.Sizes[0] })},
	{"decreasing sizes", editClass(func(c *netmodel.Class) {
		c.Curve.Sizes[0], c.Curve.Sizes[1] = c.Curve.Sizes[1], c.Curve.Sizes[0]
	})},
	{"negative size", editClass(func(c *netmodel.Class) { c.Curve.Sizes[0] = -64 })},
	{"decreasing lat", editClass(func(c *netmodel.Class) { c.Curve.Lat[len(c.Curve.Lat)-1] = 0 })},
	{"negative lat", editClass(func(c *netmodel.Class) { c.Curve.Lat[0] = -1 })},
	{"huge lat", editClass(func(c *netmodel.Class) { c.Curve.Lat[len(c.Curve.Lat)-1] = 1e300 })},
	{"csend -1", editClass(func(c *netmodel.Class) { c.CSend = -1 })},
	{"crecv huge", editClass(func(c *netmodel.Class) { c.CRecv = 1e300 })},
	{"class missing", func(m *netmodel.Model) { delete(m.Classes, cluster.NewTestTopology().PathSignature(0, 1)) }},
}

// load decodes data and attaches it to topo, as cbesd loads its store.
func load(data []byte, topo *cluster.Topology) (*netmodel.Model, error) {
	m, err := netmodel.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return m, m.Attach(topo)
}

func TestDecodeRejectsHostileModel(t *testing.T) {
	topo, m := calibrated(t)
	for _, tc := range hostileModels {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := load(encodeWith(t, m, tc.mutate), topo); err == nil {
				t.Fatal("loaded a hostile model")
			}
		})
	}
	// The untouched model still round-trips.
	if _, err := load(encodeWith(t, m, func(*netmodel.Model) {}), topo); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeModel: any byte string gives a Decode or Attach error, or a
// model whose latencies are finite and non-negative — never a panic.
// Seeds are a model as cbesd stores it plus the hostile edits above.
func FuzzDecodeModel(f *testing.F) {
	topo, m := calibrated(f)
	f.Add(encodeWith(f, m, func(*netmodel.Model) {}))
	for _, tc := range hostileModels {
		f.Add(encodeWith(f, m, tc.mutate))
	}
	n := topo.NumNodes()
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := load(data, topo)
		if err != nil {
			return
		}
		for _, size := range []int64{0, 64, 3000, 1 << 20, 1 << 40} {
			for i := 0; i < n; i++ {
				j := (i + 3) % n
				for _, c := range [][4]float64{{1, 1, 0, 0}, {0.25, 0.5, 0.9, 1}} {
					l := q.LatencyCond(i, j, size, c[0], c[1], c[2], c[3])
					if !(l >= 0) || math.IsInf(l, 0) {
						t.Fatalf("latency %v for %d→%d at %d bytes under %v", l, i, j, size, c)
					}
				}
			}
		}
	})
}
