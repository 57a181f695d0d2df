package schedule

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"cbes/internal/core"
)

// Decision digests over decisionGrid. A change to the search drivers, the
// move proposer or the scorer that moves any decision by one bit moves one
// of these. GA has its own digest so a change aimed at GA alone can show
// that CS, NCS, RS and exhaustive did not move.
const (
	searchGolden  = "5d6172a94d797e02ec8216904e157f09d91f37680e1585c2903e755cee8652b2"
	geneticGolden = "d6ae37907c2b65ef322fd59508286128fe7fa513c8b13175c3cd04dec159faf5"
)

// includesNode0 is the golden grid's constraint: the mapping must use node 0.
func includesNode0(m core.Mapping) bool {
	for _, n := range m {
		if n == 0 {
			return true
		}
	}
	return false
}

// decisionGrid runs every scheduler for seeds 0–15 over both fixtures and
// every request variant, and returns the SHA-256 of each decision's
// mapping, Predicted and Score bits and evaluation count (or its error):
// one digest for CS, NCS, RS and exhaustive, and one for GA.
func decisionGrid(t *testing.T) (search, genetic string) {
	variants := []struct {
		name string
		set  func(*Request)
	}{
		{"default", func(*Request) {}},
		{"maximize", func(r *Request) { r.Maximize = true }},
		{"node0", func(r *Request) { r.Constraint = includesNode0 }},
		{"restarts1", func(r *Request) { r.Restarts = 1 }},
		{"restarts6", func(r *Request) { r.Restarts = 6 }},
		{"effort100", func(r *Request) { r.Effort = 100 }},
		{"effort12000", func(r *Request) { r.Effort = 12000 }},
		// Past 4·saRestartCap the default fan widens: 30 000 runs 6 restarts.
		{"effort30000", func(r *Request) { r.Effort = 30000 }},
	}
	algs := []struct {
		name string
		run  func(*Request) (*Decision, error)
	}{
		{"cs", SimulatedAnnealing},
		{"ncs", SimulatedAnnealingNoComm},
		{"rs", Random},
		{"exhaustive", Exhaustive},
		{"ga", Genetic},
	}
	hs, hg := sha256.New(), sha256.New()
	for fi, f := range []*fixture{newFixture(t), newFixtureOn(t, homogeneousTwoSwitch(t))} {
		pool := allNodes(f)
		for _, v := range variants {
			for _, a := range algs {
				var h hash.Hash = hs
				if a.name == "ga" {
					h = hg
				}
				for seed := int64(0); seed < 16; seed++ {
					req := f.request(pool, seed)
					v.set(req)
					d, err := a.run(req)
					fmt.Fprintf(h, "%d %s %s %d: ", fi, v.name, a.name, seed)
					if err != nil {
						fmt.Fprintf(h, "error %v\n", err)
						continue
					}
					fmt.Fprintf(h, "%v %x %x %d\n", []int(d.Mapping),
						math.Float64bits(d.Predicted), math.Float64bits(d.Score), d.Evaluations)
				}
			}
		}
	}
	return hex.EncodeToString(hs.Sum(nil)), hex.EncodeToString(hg.Sum(nil))
}

// TestDecisionGolden pins every scheduler's decisions bit for bit. The
// digests were taken on amd64, which never fuses a multiply and an add;
// architectures that do may differ in the last bit of a prediction.
func TestDecisionGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are for amd64 floating point")
	}
	search, genetic := decisionGrid(t)
	if search != searchGolden {
		t.Errorf("CS/NCS/RS/exhaustive decisions moved:\n got %s\nwant %s", search, searchGolden)
	}
	if genetic != geneticGolden {
		t.Errorf("GA decisions moved:\n got %s\nwant %s", genetic, geneticGolden)
	}
}
