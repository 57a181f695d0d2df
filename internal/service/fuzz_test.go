package service

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cbes/internal/obs"
)

// FuzzHandlers feeds hostile arguments straight to the RPC handlers: node
// lists that are out of range, negative or duplicated, empty pools and
// empty Compares, unknown apps and algorithms, non-finite or negative
// outcomes and advances, and outcome reports under hostile prediction
// IDs (a joined report's ID must be spelled as the ledger spells IDs,
// "p" and lower-case hex without leading zeros). The read-outs take the
// fuzzed strings too:
// Decisions the algorithm as kind and as trace filter (a trace filter is
// parsed), Accuracy the app and algorithm as filters, and Metrics. Every
// call must return an error or a well-formed reply, and never a recovered
// panic. Advance is fuzzed only over steps it must reject, since a long
// legal advance is slow by design.
func FuzzHandlers(f *testing.F) {
	sys, prog := newSys(f)
	s := NewServer(sys)
	const known = "<app>" // stands for the profiled app's name
	f.Add(known, []byte{0, 1, 2, 3}, uint8(2), "cs", []byte{0, 1, 2, 3, 4, 5, 6, 7}, 1.0, math.NaN(), "p-fuzz", true)
	f.Add(known, []byte{0, 1, 2, 200}, uint8(1), "ncs", []byte{0, 1, 2, 3, 99}, -1.0, -1.0, "p-fuzz", true)
	f.Add(known, []byte{0xff, 1, 2, 3}, uint8(3), "ga", []byte{0xfe, 0, 1, 2, 3}, math.NaN(), math.Inf(1), "p-fuzz", true)
	f.Add(known, []byte{1, 1, 1, 1}, uint8(1), "rs", []byte{1, 1, 1, 1}, math.Inf(1), math.Inf(-1), "p-fuzz", true)
	f.Add(known, []byte{0, 1, 2}, uint8(0), "cs", []byte{}, 0.0, 1e300, "p-fuzz", false)
	f.Add(known, []byte{}, uint8(0), "quantum", []byte{0, 1}, 2.5, math.MaxFloat64, "p-fuzz", false)
	f.Add("ghost", []byte{0, 1, 2, 3}, uint8(2), "", []byte{0, 1, 2, 3}, 1.0, 1e10, "p-fuzz", false)
	f.Add(known, []byte{0, 1, 2, 3}, uint8(1), "cs", []byte{0, 1, 2, 3}, 1.0, math.NaN(), "p01", false)
	f.Add(known, []byte{3, 2, 1, 0}, uint8(2), "rs", []byte{0, 1, 2, 3}, 2.0, math.NaN(), "p10000000000000001", false)
	f.Fuzz(func(t *testing.T, app string, nodes []byte, width uint8, alg string, pool []byte, actual, advance float64, outcomeID string, reportServed bool) {
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
			id := outcomeID
			if reportServed && served != "" {
				id = served
			}
			var out ReportOutcomeReply
			err = s.ReportOutcome(&ReportOutcomeArgs{PredictionID: id, ActualSeconds: actual}, &out)
			check("ReportOutcome", err)
			if err == nil && (out.Actual != actual || !(actual > 0) || math.IsInf(actual, 0) || !canonicalID(id)) {
				t.Fatalf("ReportOutcome(%q, %v) = %+v", id, actual, out)
			}
		}

		var dec DecisionsReply
		err = s.Decisions(&DecisionsArgs{N: int(width), Kind: alg}, &dec)
		check("Decisions", err)
		if err == nil && ((width > 0 && len(dec.Decisions) > int(width)) || uint64(len(dec.Decisions)) > dec.Total) {
			t.Fatalf("Decisions(n=%d, kind=%q) = %d records of %d", width, alg, len(dec.Decisions), dec.Total)
		}
		for _, d := range dec.Decisions {
			if alg != "" && d.Kind != alg {
				t.Fatalf("Decisions(kind=%q) returned a %q record", alg, d.Kind)
			}
		}
		dec = DecisionsReply{}
		err = s.Decisions(&DecisionsArgs{TraceID: alg}, &dec)
		check("Decisions", err)
		if err == nil && alg != "" {
			id, perr := obs.ParseID(alg)
			if perr != nil || id == 0 {
				t.Fatalf("Decisions accepted trace filter %q", alg)
			}
			for _, d := range dec.Decisions {
				if d.TraceID != obs.FormatID(id) {
					t.Fatalf("Decisions(trace=%q) returned trace %q", alg, d.TraceID)
				}
			}
		}

		var acc AccuracyReply
		err = s.Accuracy(&AccuracyArgs{App: app, Scheduler: alg, Samples: int(width)}, &acc)
		check("Accuracy", err)
		if err == nil && width > 0 && len(acc.Samples) > int(width) {
			t.Fatalf("Accuracy(samples=%d) = %d samples", width, len(acc.Samples))
		}
		for _, b := range acc.Buckets {
			if (app != "" && b.App != app) || (alg != "" && b.Scheduler != alg) {
				t.Fatalf("Accuracy(app=%q, sched=%q) returned bucket %+v", app, alg, b)
			}
		}

		var met MetricsReply
		err = s.Metrics(&MetricsArgs{}, &met)
		check("Metrics", err)
		if err == nil && !strings.Contains(met.Text, "# TYPE cbes_rpc_requests_total counter") {
			t.Fatal("Metrics returned no Prometheus text")
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

// canonicalID reports whether id is spelled as the accuracy ledger
// spells prediction IDs.
func canonicalID(id string) bool {
	seq, err := strconv.ParseUint(strings.TrimPrefix(id, "p"), 16, 64)
	return err == nil && id == "p"+strconv.FormatUint(seq, 16)
}
