package service

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzHandlers feeds hostile arguments straight to the RPC handlers: node
// lists that are out of range, negative or duplicated, empty pools and
// empty Compares, unknown apps and algorithms, non-finite or negative
// outcomes and advances. Every call must return an error or a
// well-formed reply, and never a recovered panic. Advance is fuzzed only
// over steps it must reject, since a long legal advance is slow by design.
func FuzzHandlers(f *testing.F) {
	sys, prog := newSys(f)
	s := NewServer(sys)
	const known = "<app>" // stands for the profiled app's name
	f.Add(known, []byte{0, 1, 2, 3}, uint8(2), "cs", []byte{0, 1, 2, 3, 4, 5, 6, 7}, 1.0, math.NaN(), true)
	f.Add(known, []byte{0, 1, 2, 200}, uint8(1), "ncs", []byte{0, 1, 2, 3, 99}, -1.0, -1.0, true)
	f.Add(known, []byte{0xff, 1, 2, 3}, uint8(3), "ga", []byte{0xfe, 0, 1, 2, 3}, math.NaN(), math.Inf(1), true)
	f.Add(known, []byte{1, 1, 1, 1}, uint8(1), "rs", []byte{1, 1, 1, 1}, math.Inf(1), math.Inf(-1), true)
	f.Add(known, []byte{0, 1, 2}, uint8(0), "cs", []byte{}, 0.0, 1e300, false)
	f.Add(known, []byte{}, uint8(0), "quantum", []byte{0, 1}, 2.5, math.MaxFloat64, false)
	f.Add("ghost", []byte{0, 1, 2, 3}, uint8(2), "", []byte{0, 1, 2, 3}, 1.0, 1e10, false)
	f.Fuzz(func(t *testing.T, app string, nodes []byte, width uint8, alg string, pool []byte, actual, advance float64, reportServed bool) {
		if app == known {
			app = prog.Name
		}
		mapping, poolNodes := signedNodes(nodes), signedNodes(pool)
		check := func(method string, err error) {
			if err != nil && strings.Contains(err.Error(), "recovered panic") {
				t.Fatalf("%s: %v", method, err)
			}
		}

		var ev EvaluateReply
		err := s.Evaluate(&EvaluateArgs{App: app, Mapping: mapping}, &ev)
		check("Evaluate", err)
		if err == nil && (ev.TraceID == "" || len(ev.StaleNodes) > len(mapping)) {
			t.Fatalf("Evaluate(%v) = %+v", mapping, ev)
		}

		var ex ExplainReply
		err = s.Explain(&ExplainArgs{App: app, Mapping: mapping}, &ex)
		check("Explain", err)
		if err == nil && ex.Text == "" {
			t.Fatalf("Explain(%v) returned no text", mapping)
		}

		batch := make([][]int, width%5) // width 0 is the empty Compare
		for i := range batch {
			batch[i] = append(mapping[i%max(len(mapping), 1):], mapping[:i%max(len(mapping), 1)]...)
		}
		var cmp CompareReply
		err = s.Compare(&CompareArgs{App: app, Mappings: batch}, &cmp)
		check("Compare", err)
		if err == nil && (len(cmp.Seconds) != len(batch) || len(cmp.Degraded) != len(batch) ||
			len(cmp.StaleNodes) != len(batch) || cmp.Best < 0 || cmp.Best >= len(batch)) {
			t.Fatalf("Compare(%v) = %+v", batch, cmp)
		}

		var sch ScheduleReply
		err = s.Schedule(&ScheduleArgs{App: app, Algorithm: alg, Pool: poolNodes, Seed: int64(width), Effort: 64}, &sch)
		check("Schedule", err)
		if err == nil {
			if len(sch.Mapping) != prog.Ranks {
				t.Fatalf("Schedule over %v: mapping %v, want %d ranks", poolNodes, sch.Mapping, prog.Ranks)
			}
			for _, n := range sch.Mapping {
				if !slices.Contains(poolNodes, n) {
					t.Fatalf("Schedule over %v placed a rank on node %d", poolNodes, n)
				}
			}
		}

		for _, served := range []string{ev.PredictionID, cmp.PredictionID} {
			id := "p-fuzz"
			if reportServed && served != "" {
				id = served
			}
			var out ReportOutcomeReply
			err = s.ReportOutcome(&ReportOutcomeArgs{PredictionID: id, ActualSeconds: actual}, &out)
			check("ReportOutcome", err)
			if err == nil && (out.Actual != actual || !(actual > 0) || math.IsInf(actual, 0)) {
				t.Fatalf("ReportOutcome(%q, %v) = %+v", id, actual, out)
			}
		}

		if advance >= 0 && advance < 1e10 {
			return // a legal step: slow by design, and not what this fuzzes
		}
		var adv AdvanceReply
		err = s.Advance(&AdvanceArgs{Seconds: advance}, &adv)
		check("Advance", err)
		if err == nil {
			t.Fatalf("Advance(%v) = %+v, want an error", advance, adv)
		}
	})
}

// signedNodes reads each byte as a signed node ID, so fuzzed lists reach
// negative, in-range and out-of-range nodes alike.
func signedNodes(b []byte) []int {
	out := make([]int, len(b))
	for i, x := range b {
		out[i] = int(int8(x))
	}
	return out
}
