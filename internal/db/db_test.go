package db

import (
	"os"
	"path/filepath"
	"testing"

	"cbes/internal/cluster"
	"cbes/internal/netmodel"
	"cbes/internal/profile"
	"cbes/internal/trace"
)

func TestModelRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewTestTopology()
	m := netmodel.New(topo)
	for id := 0; id < topo.NumClasses(); id++ { // Attach wants every class
		m.SetClass(topo.ClassSignature(id), netmodel.Class{
			Curve: netmodel.Curve{Sizes: []int64{64}, Lat: []float64{1e-5}},
			Pairs: 4,
		})
	}
	sig := topo.ClassSignature(0)
	if err := s.SaveModel(m); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadModel("testnet")
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Attach(topo); err != nil {
		t.Fatal(err)
	}
	if got.Classes[sig].Pairs != 4 {
		t.Fatalf("round trip lost data: %+v", got.Classes)
	}
}

func TestProfileRoundTripAndList(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"lu.B.8", "hpl/10000", "aztec 8"} {
		p := &profile.Profile{
			App:     app,
			Cluster: "orange-grove",
			Mapping: []int{0, 1, 2, 3, 4, 5, 6, 7},
			ArchSpeed: map[cluster.Arch]float64{
				cluster.ArchAlpha: 1.0,
			},
			Segments: []profile.SegmentProfile{{
				Name: "main",
				Procs: []profile.ProcProfile{{
					Rank: 0, X: 1, O: 0.1, B: 0.2,
					Sends: []trace.MsgGroup{{Peer: 1, Size: 4096, Count: 3}},
				}},
			}},
		}
		if err := s.SaveProfile(p); err != nil {
			t.Fatal(err)
		}
		got, err := s.LoadProfile(app)
		if err != nil {
			t.Fatal(err)
		}
		if got.App != app || got.Segments[0].Procs[0].Sends[0].Count != 3 {
			t.Fatalf("round trip: %+v", got)
		}
	}
	// One file per application in the store's apps directory.
	names, err := filepath.Glob(filepath.Join(s.Dir(), "apps", "*.profile.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("profiles = %v", names)
	}
}

func TestLoadMissing(t *testing.T) {
	s, _ := Open(t.TempDir())
	if _, err := s.LoadModel("nope"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := s.LoadProfile("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSanitizeKeepsFilesInsideStore(t *testing.T) {
	s, _ := Open(t.TempDir())
	p := &profile.Profile{App: "../../evil", Cluster: "c", Mapping: []int{0}}
	if err := s.SaveProfile(p); err != nil {
		t.Fatal(err)
	}
	// The file must be inside the store's apps dir.
	entries, _ := os.ReadDir(filepath.Join(s.Dir(), "apps"))
	if len(entries) != 1 {
		t.Fatalf("entries = %v", entries)
	}
	outside := filepath.Join(s.Dir(), "..", "evil.profile.json")
	if _, err := os.Stat(outside); err == nil {
		t.Fatal("path traversal escaped the store")
	}
}

func TestAtomicOverwrite(t *testing.T) {
	s, _ := Open(t.TempDir())
	p := &profile.Profile{App: "a", Cluster: "c", Mapping: []int{0}}
	if err := s.SaveProfile(p); err != nil {
		t.Fatal(err)
	}
	p.Mapping = []int{0, 1}
	if err := s.SaveProfile(p); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadProfile("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Mapping) != 2 {
		t.Fatalf("overwrite lost update: %+v", got)
	}
}
