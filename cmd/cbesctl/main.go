// Command cbesctl is the client CLI for the cbesd daemon.
//
// Usage:
//
//	cbesctl [-addr 127.0.0.1:7411] [-timeout 5s] [-retries 3] [-deadline 2s] status
//	cbesctl [-addr ...] evaluate -app lu.B.8 -mapping 0,1,2,3,4,5,6,7
//	cbesctl [-addr ...] compare  -app lu.B.8 -mapping 0,1,2,3,4,5,6,7 -mapping 20,21,...
//	cbesctl [-addr ...] schedule -app lu.B.8 -alg cs -pool 0-7,10-21 [-seed 1] [-effort N]
//	cbesctl [-addr ...] advance  -seconds 30
//	cbesctl [-addr ...] metrics  [-prefix cbes_accuracy]
//	cbesctl [-addr ...] decisions [-n 20] [-kind schedule] [-app lu.B.8] [-trace HEXID]
//	cbesctl [-addr ...] report   -id PREDID -actual 61.3
//	cbesctl [-addr ...] accuracy [-app lu.B.8] [-sched cs] [-samples 10]
//
// Commands that make the server decide something (evaluate, compare,
// schedule) print the request's trace ID; feed it to the daemon's
// /debug/trace?id=... endpoint for the causal flame view, or to
// `cbesctl decisions -trace ...` for the matching flight-recorder
// record. They also print a prediction ID (predid; compare prints the
// best mapping's): once the mapping has actually run, `cbesctl report
// -id PREDID -actual SECONDS` joins the measured runtime back to the
// prediction, and `cbesctl accuracy` shows the resulting calibration
// statistics and drift verdict.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"cbes/internal/cluster"
	"cbes/internal/obs"
	"cbes/internal/service"
)

type mappingsFlag [][]int

func (m *mappingsFlag) String() string { return fmt.Sprint([][]int(*m)) }
func (m *mappingsFlag) Set(s string) error {
	ids, err := cluster.ParseNodeList(s, cluster.MaxSpecNodes)
	if err != nil {
		return err
	}
	*m = append(*m, ids)
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7411", "cbesd address")
	timeout := flag.Duration("timeout", service.DefaultDialTimeout, "connection timeout")
	retries := flag.Int("retries", 3, "retries for transient failures on idempotent commands (-1 disables)")
	deadline := flag.Duration("deadline", 0, "per-call deadline propagated to the server (it abandons work past it; 0 disables)")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	verb := flag.Arg(0)

	sub := flag.NewFlagSet(verb, flag.ExitOnError)
	app := sub.String("app", "", "application name")
	alg := sub.String("alg", "cs", "scheduler: cs, ncs, rs, ga")
	pool := sub.String("pool", "", "node pool, e.g. 0-7,10,12")
	seed := sub.Int64("seed", 1, "scheduler seed")
	effort := sub.Int("effort", 0, "schedule: search-effort cap in energy evaluations (0 = server default)")
	seconds := sub.Float64("seconds", 10, "simulated seconds to advance")
	explain := sub.Bool("explain", false, "evaluate: show the per-process R/C breakdown")
	n := sub.Int("n", 20, "decisions: max records to fetch (0 for all resident)")
	kind := sub.String("kind", "", "decisions: filter by kind (schedule, evaluate, explain, compare, outcome)")
	traceID := sub.String("trace", "", "decisions: filter by hex trace id")
	prefix := sub.String("prefix", "", "metrics: only emit families whose name starts with this prefix")
	predID := sub.String("id", "", "report: prediction ID to join the outcome to")
	actual := sub.Float64("actual", 0, "report: measured runtime in seconds")
	sched := sub.String("sched", "", "accuracy: filter buckets by scheduler name")
	samples := sub.Int("samples", 10, "accuracy: recent joined pairs to list (0 for all resident)")
	var mappings mappingsFlag
	sub.Var(&mappings, "mapping", "mapping as node list (repeatable for compare)")
	if err := sub.Parse(flag.Args()[1:]); err != nil {
		log.Fatal(err)
	}

	c, err := service.DialTimeout(*addr, *timeout)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if *retries <= 0 {
		*retries = -1 // 0 or negative both mean "no retries"
	}
	c.SetRetryPolicy(service.RetryPolicy{Max: *retries})
	if *deadline > 0 {
		c.SetCallTimeout(*deadline)
	}

	switch verb {
	case "status":
		st, err := c.Status()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cluster    : %s (%d nodes)\n", st.Cluster, st.Nodes)
		fmt.Printf("sim time   : %.1fs\n", st.SimSeconds)
		fmt.Printf("epoch      : %d\n", st.Epoch)
		fmt.Printf("apps       : %s\n", strings.Join(st.Apps, ", "))
		fmt.Printf("avail CPU  : %s\n", fmtFloats(st.AvailCPU))
		fmt.Printf("NIC util   : %s\n", fmtFloats(st.NICUtil))
	case "evaluate":
		if *app == "" || len(mappings) != 1 {
			log.Fatal("evaluate needs -app and exactly one -mapping")
		}
		if *explain {
			r, err := c.Explain(*app, mappings[0])
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(r.Text)
			break
		}
		r, err := c.Evaluate(*app, mappings[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("predicted execution time: %.3fs (critical rank %d)\n", r.Seconds, r.Critical)
		if r.TraceID != "" {
			fmt.Printf("trace: %s\n", r.TraceID)
		}
		if r.PredictionID != "" {
			fmt.Printf("predid : %s\n", r.PredictionID)
		}
		printBand(r.ErrBandLowPct, r.ErrBandHighPct, r.ErrBandSamples)
		if r.Brownout {
			fmt.Println("BROWNOUT: server is shedding load; answered from the profile-only fast path (nominal conditions, no predid)")
		}
		if r.Degraded {
			fmt.Printf("DEGRADED: stale monitoring data on nodes %v; prediction used profile-only fallback\n", r.StaleNodes)
		}
	case "compare":
		if *app == "" || len(mappings) < 2 {
			log.Fatal("compare needs -app and at least two -mapping flags")
		}
		r, err := c.Compare(*app, mappings)
		if err != nil {
			log.Fatal(err)
		}
		for i, s := range r.Seconds {
			marker, id := " ", ""
			if i == r.Best {
				marker = "*"
				if r.PredictionID != "" {
					id = "  predid=" + r.PredictionID
				}
			}
			note := ""
			if i < len(r.Degraded) && r.Degraded[i] {
				note = fmt.Sprintf("  [degraded: stale nodes %v]", r.StaleNodes[i])
			}
			fmt.Printf("%s mapping %v: %.3fs%s%s\n", marker, mappings[i], s, id, note)
		}
		if r.Brownout {
			fmt.Println("BROWNOUT: server is shedding load; batch answered from the profile-only fast path (nominal conditions, no predid)")
		}
		if r.TraceID != "" {
			fmt.Printf("trace: %s\n", r.TraceID)
		}
		printBand(r.ErrBandLowPct, r.ErrBandHighPct, r.ErrBandSamples)
	case "schedule":
		if *app == "" || *pool == "" {
			log.Fatal("schedule needs -app and -pool")
		}
		ids, err := cluster.ParseNodeList(*pool, cluster.MaxSpecNodes)
		if err != nil {
			log.Fatal(err)
		}
		r, err := c.ScheduleEffort(*app, *alg, ids, *seed, *effort)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mapping   : %v\n", r.Mapping)
		fmt.Printf("predicted : %.3fs\n", r.Predicted)
		fmt.Printf("evals     : %d\n", r.Evaluations)
		fmt.Printf("scheduler : %dµs\n", r.SchedulerMicros)
		if r.TraceID != "" {
			fmt.Printf("trace     : %s\n", r.TraceID)
		}
		if r.PredictionID != "" {
			fmt.Printf("predid    : %s\n", r.PredictionID)
		}
		printBand(r.ErrBandLowPct, r.ErrBandHighPct, r.ErrBandSamples)
		if r.Degraded {
			fmt.Printf("DEGRADED  : stale monitoring data on nodes %v; prediction used profile-only fallback\n", r.StaleNodes)
		}
	case "advance":
		r, err := c.Advance(*seconds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sim time now %.1fs (epoch %d)\n", r.SimSeconds, r.Epoch)
	case "decisions":
		r, err := c.Decisions(*n, *kind, *app, *traceID)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d record(s) shown, %d recorded since start\n", len(r.Decisions), r.Total)
		for _, d := range r.Decisions {
			printDecision(d)
		}
	case "metrics":
		r, err := c.Metrics()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(filterMetricsProm(r.Text, *prefix))
	case "report":
		if *predID == "" || *actual <= 0 {
			log.Fatal("report needs -id and a positive -actual (seconds)")
		}
		r, err := c.ReportOutcome(*predID, *actual)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("joined %s: app=%s predicted=%.3fs actual=%.3fs err=%+.1f%%\n",
			*predID, r.App, r.Predicted, r.Actual, r.SignedErrPct)
		fmt.Printf("calibration: %s\n", calWord(r.CalibrationOK))
	case "accuracy":
		r, err := c.Accuracy(*app, *sched, *samples)
		if err != nil {
			log.Fatal(err)
		}
		printAccuracy(r)
	default:
		usage()
	}
}

// calWord renders the drift verdict: OK while recent error is consistent
// with the baseline, DRIFT otherwise.
func calWord(ok bool) string {
	if ok {
		return "OK"
	}
	return "DRIFT"
}

// printAccuracy renders the Accuracy reply: status header, per-bucket
// calibration table, recent joined pairs.
func printAccuracy(r *service.AccuracyReply) {
	st := r.Status
	fmt.Printf("calibration : %s (window MAPE %.1f%% over %d, baseline %.1f%% over %d)\n",
		calWord(st.CalibrationOK), st.WindowMAPEPct, st.WindowN, st.BaselineMAPEPct, st.BaselineN)
	fmt.Printf("joined      : %d (pending %d, unmatched %d, expired %d)\n",
		st.Joined, st.Pending, st.Unmatched, st.Expired)
	fmt.Printf("overall     : bias %+.1f%%  MAPE %.1f%%\n", st.BiasPct, st.MAPEPct)
	if len(r.Buckets) > 0 {
		fmt.Printf("\n%-16s %-12s %-8s %-6s %6s %8s %8s %7s %7s %7s  %s\n",
			"app", "scheduler", "degraded", "age", "n", "bias%", "mape%", "p50%", "p90%", "p99%", "band%")
		for _, b := range r.Buckets {
			deg := "no"
			if b.Degraded {
				deg = "yes"
			}
			fmt.Printf("%-16s %-12s %-8s %-6s %6d %+8.1f %8.1f %7.1f %7.1f %7.1f  [%+.1f,%+.1f]\n",
				b.App, orDash(b.Scheduler), deg, b.AgeBucket, b.Count,
				b.BiasPct, b.MAPEPct, b.P50Pct, b.P90Pct, b.P99Pct, b.BandLowPct, b.BandHighPct)
		}
	}
	if len(r.Samples) > 0 {
		fmt.Printf("\nrecent joined pairs (newest first):\n")
		for _, s := range r.Samples {
			fmt.Printf("  %-8s %-16s %-12s predicted=%.3fs actual=%.3fs err=%+.1f%%\n",
				s.ID, s.App, orDash(s.Scheduler), s.Predicted, s.Actual, s.SignedErrPct)
		}
	}
}

// printBand renders the empirical error band a prediction reply carries
// (nothing while the calibration bucket is still under-sampled).
func printBand(lo, hi float64, n int) {
	if n > 0 {
		fmt.Printf("errband   : [%+.1f%%, %+.1f%%] from %d joined outcomes\n", lo, hi, n)
	}
}

// filterMetricsProm keeps only the families whose metric name starts with
// prefix: HELP/TYPE headers plus sample lines (including _bucket/_sum/
// _count series and labeled children, which share the prefix).
func filterMetricsProm(text, prefix string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if line == "" {
			continue
		}
		name := line
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name = rest
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name = rest
		}
		if strings.HasPrefix(name, prefix) {
			b.WriteString(line)
		}
	}
	return b.String()
}

// printDecision renders one flight-recorder record in a compact
// one-decision-per-paragraph form.
func printDecision(d obs.Decision) {
	fmt.Printf("%s  %-8s %-10s trace=%s epoch=%d\n",
		d.Time.Format("15:04:05.000"), d.Kind, d.App, orDash(d.TraceID), d.Epoch)
	if d.Algorithm != "" {
		fmt.Printf("  alg=%s seed=%d evals=%d scheduler=%dµs\n",
			d.Algorithm, d.Seed, d.Evaluations, d.SchedulerMicros)
	}
	if d.CacheLookups > 0 {
		fmt.Printf("  cache: %d/%d hit\n", d.CacheHits, d.CacheLookups)
	}
	if len(d.Mapping) > 0 {
		fmt.Printf("  mapping=%v predicted=%.3fs\n", d.Mapping, d.Predicted)
	}
	if d.PredictionID != "" {
		fmt.Printf("  predid=%s\n", d.PredictionID)
	}
	if d.Kind == "outcome" && d.Actual > 0 {
		fmt.Printf("  actual=%.3fs\n", d.Actual)
	}
	if d.Degraded {
		fmt.Printf("  DEGRADED: stale nodes %v\n", d.StaleNodes)
	}
	if d.Shed {
		if d.Brownout {
			fmt.Println("  SHED: admission limiter refused full service; answered via brownout fast path")
		} else {
			fmt.Println("  SHED: admission limiter refused this request")
		}
	}
	if d.Err != "" {
		fmt.Printf("  error: %s\n", d.Err)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func fmtFloats(xs []float64) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, fmt.Sprintf("%.2f", x))
	}
	return strings.Join(parts, " ")
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cbesctl [-addr host:port] status|evaluate|compare|schedule|advance|metrics|decisions|report|accuracy [flags]")
	os.Exit(2)
}
