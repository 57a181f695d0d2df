package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// loadResults reads the untraced results of dir, grouped by workload.
func loadResults(dir string) (map[string][]*result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*-seed*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	for _, f := range files {
		if strings.HasSuffix(f, ".layers.json") || strings.HasSuffix(f, ".trace.json") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results (want <workload>-seed<n>.json)", dir)
	}
	return out, nil
}

// verdict judges baseline a against candidate b for one metric of one
// workload. The median must move by more than the bound, and by more
// than either side's own runs differ (the distance between their
// quartiles), to be better or worse. One that did not is the same only
// if the runs agree among themselves to within the bound — otherwise
// the question is unresolved. An exact quantity has no noise: its runs
// differ by seed, and both sides ran the same seeds.
func verdict(def metricDef, a, b []float64) (string, [6]float64) {
	ma, mb := median(a), median(b)
	a1, a3 := quartiles(a)
	b1, b3 := quartiles(b)
	limit := def.Bound
	if !def.Abs {
		limit *= math.Abs(ma)
	}
	worse := mb - ma
	if def.Better == "higher" {
		worse = -worse
	}
	noise := math.Max(a3-a1, b3-b1)
	if def.Exact {
		noise = 0
	}
	v := "same"
	switch {
	case worse > limit && worse > noise:
		v = "worse"
	case worse < -limit && -worse > noise:
		v = "better"
	case noise > limit:
		v = "unresolved"
	}
	return v, [6]float64{ma, a1, a3, mb, b1, b3}
}

// compareDirs prints one row per workload × end-to-end metric and
// reports whether any row is worse. Exact quantities (digest, quality,
// prediction error) must not differ at all between runs of one seed.
func compareDirs(w io.Writer, dirA, dirB string) (anyWorse bool, err error) {
	ra, err := loadResults(dirA)
	if err != nil {
		return false, err
	}
	rb, err := loadResults(dirB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-18s %12s %25s %12s %25s %9s  %s\n",
		"workload", "metric", "a median", "a quartiles", "b median", "b quartiles", "bound", "verdict")
	for _, wl := range suite {
		as, bs := ra[wl.name], rb[wl.name]
		if len(as) == 0 || len(bs) == 0 {
			continue
		}
		for _, def := range endToEnd() {
			if !def.appliesTo(wl.name) {
				continue
			}
			va, vb := valuesOf(as, def.Name), valuesOf(bs, def.Name)
			v, q := verdict(def, va, vb)
			bound := fmt.Sprintf("%.0f%%", 100*def.Bound)
			if def.Abs {
				bound = fmt.Sprintf("%g %s", def.Bound, def.Unit)
			}
			fmt.Fprintf(w, "%-14s %-18s %12.5g %12.5g..%-11.5g %12.5g %12.5g..%-11.5g %9s  %s\n",
				wl.name, def.Name, q[0], q[1], q[2], q[3], q[4], q[5], bound, v)
			anyWorse = anyWorse || v == "worse"
		}
		for _, a := range as {
			for _, b := range bs {
				if a.Env.Seed != b.Env.Seed || a.Env.TimedSeconds != b.Env.TimedSeconds {
					continue
				}
				if diff := exactDiff(a, b); diff != "" {
					fmt.Fprintf(w, "%-14s seed %d exact quantities DIFFER: %s\n", wl.name, a.Env.Seed, diff)
					anyWorse = true
				}
			}
		}
	}
	return anyWorse, nil
}

func valuesOf(rs []*result, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}

// exactDiff names the seed-determined quantities on which two runs of
// the same seed and length disagree.
func exactDiff(a, b *result) string {
	var diffs []string
	if a.Digest != b.Digest {
		diffs = append(diffs, fmt.Sprintf("digest %s vs %s", a.Digest, b.Digest))
	}
	for _, name := range []string{"quality_gap_pct", "pred_err_mean_pct", "pred_within4_pct"} {
		if x, y := a.Metrics[name].Value, b.Metrics[name].Value; x != y {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", name, x, y))
		}
	}
	return strings.Join(diffs, "; ")
}
