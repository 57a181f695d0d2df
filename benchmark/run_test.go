package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// quick makes a test run pay for one set-up per batch only, and for a
// fixed list of two slices.
func quick(t *testing.T) {
	oldMin, oldBudget, oldSlices := minSetups, setupBudget, listSlices
	minSetups, setupBudget, listSlices = 1, 0, 2
	t.Cleanup(func() { minSetups, setupBudget, listSlices = oldMin, oldBudget, oldSlices })
}

const smokeSeconds = 0.24 // one fiftieth of the declared run length

// TestSmoke runs all six workloads untraced at 1/50 length: every
// operation must verify, and every metric the workload is declared to
// report must be there.
func TestSmoke(t *testing.T) {
	quick(t)
	for i := range suite {
		w := &suite[i]
		t.Run(w.name, func(t *testing.T) {
			res, _, err := execute(w, runConfig{seed: 3, seconds: smokeSeconds}, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, def := range gated {
				if v := res.Metrics[def.Name].Value; !(v > 0) {
					t.Errorf("%s = %v: a gated metric must never be 0", def.Name, v)
				}
			}
			for _, def := range scoped {
				_, reported := res.Metrics[def.Name]
				if reported != def.appliesTo(w.name) {
					t.Errorf("%s reported=%v, declared on this workload=%v", def.Name, reported, def.appliesTo(w.name))
				}
			}
			if w.serial == (res.Digest == "") {
				t.Errorf("digest %q: simulator workloads, and only they, print one", res.Digest)
			}
		})
	}
}

// TestTraced runs one service and one simulator workload traced: the
// traced pass must reproduce the untraced one, every per-layer name
// must be printed, and the result must land on disk with its trace.
func TestTraced(t *testing.T) {
	quick(t)
	for _, name := range []string{"svc_cold", "sim_fattree5k"} {
		t.Run(name, func(t *testing.T) {
			res, tr, err := execute(lookup(name), runConfig{seed: 3, seconds: 3 * smokeSeconds}, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run incorrect: attempted=%d failed=%d", res.Attempted, res.Failed)
			}
			for _, def := range perLayer() {
				if _, ok := res.Metrics[def.Name]; !ok {
					t.Errorf("per-layer metric %s missing", def.Name)
				}
			}
			if name == "svc_cold" {
				// The workload must stress what it was built for.
				if hit := res.Metrics["service.cache_hit_share"].Value; hit > 0.02 {
					t.Errorf("cache hit share %v, built for at most 0.02", hit)
				}
				if share := res.Metrics["core.predict_share"].Value; !(share > 0) {
					t.Errorf("core.predict_share %v, want the model on the blocking path", share)
				}
			}
			if op := res.Spans["op"]; op == nil || op.Count == 0 || op.Self > op.Total {
				t.Errorf("op spans = %+v", op)
			}
			dir := t.TempDir()
			if err := res.write(dir, tr); err != nil {
				t.Fatal(err)
			}
			for _, suffix := range []string{".layers.json", ".trace.json"} {
				if _, err := os.Stat(filepath.Join(dir, name+"-seed3"+suffix)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestSeedDeterminesInputs: the same seed must give the same operation
// list, hence the same digest, and another seed another one.
func TestSeedDeterminesInputs(t *testing.T) {
	quick(t)
	a := permutations(rand.New(rand.NewSource(5)), 64)
	b := permutations(rand.New(rand.NewSource(5)), 64)
	c := permutations(rand.New(rand.NewSource(6)), 64)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("mapping pools do not follow the seed")
	}
	digest := func(seed int64) string {
		res, _, err := execute(lookup("sim_fattree5k"), runConfig{seed: seed, seconds: smokeSeconds}, false)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	if d1, d2, d3 := digest(5), digest(5), digest(6); d1 != d2 || d1 == d3 {
		t.Errorf("sim_fattree5k digests: seed 5 %s and %s, seed 6 %s", d1, d2, d3)
	}
}

// TestCompareAA is the A/A check in miniature: a directory compared
// with itself has no row that is worse, and a slower copy has.
func TestCompareAA(t *testing.T) {
	quick(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	for seed := int64(1); seed <= 2; seed++ {
		res, _, err := execute(lookup("sim_fattree5k"), runConfig{seed: seed, seconds: smokeSeconds}, false)
		if err != nil {
			t.Fatal(err)
		}
		// Fixed latencies, so that the verdict does not hang on how the
		// host behaved during two 0.2 s runs.
		m := res.Metrics["latency_p50_ms"]
		m.Value = 10 + float64(seed)/10
		res.Metrics["latency_p50_ms"] = m
		if err := res.write(dirA, nil); err != nil {
			t.Fatal(err)
		}
		m.Value *= 2
		res.Metrics["latency_p50_ms"] = m
		res.Digest = "changed"
		if err := res.write(dirB, nil); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if worse, err := compareDirs(&out, dirA, dirA); err != nil || worse {
		t.Errorf("A/A: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err := compareDirs(&out, dirA, dirB)
	if err != nil || !worse {
		t.Errorf("A/B: worse=%v err=%v", worse, err)
	}
	for _, want := range []string{"latency_p50_ms", "worse", "exact quantities DIFFER"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
}
