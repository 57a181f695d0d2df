package accuracy

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cbes/internal/obs"
)

func TestBeginReportJoins(t *testing.T) {
	l := New(Config{})
	p := Prediction{App: "lu", Scheduler: "cs", Predicted: 100, AgeBucket: "<1s", Epoch: 7,
		TraceID: obs.FormatID(0xabc), At: time.Unix(1e9, 5)}
	id := l.Begin(p)
	if id == "" {
		t.Fatal("Begin returned empty id")
	}
	s, err := l.Report(id, 80) // predicted 100, actual 80 → over-prediction
	if err != nil {
		t.Fatal(err)
	}
	p.ID = id
	if s.Prediction != p || s.Actual != 80 || s.JoinedAt.IsZero() {
		t.Fatalf("joined %+v, want %+v", s, p)
	}
	if math.Abs(s.SignedErrPct-25) > 1e-9 {
		t.Fatalf("signed err = %v, want +25 (over-prediction positive)", s.SignedErrPct)
	}
	if math.Abs(s.AbsErrPct-25) > 1e-9 {
		t.Fatalf("abs err = %v, want 25", s.AbsErrPct)
	}
	st := l.Status()
	if st.Joined != 1 || st.Pending != 0 || st.Predictions != 1 || st.Outcomes != 1 {
		t.Fatalf("status after join: %+v", st)
	}
	// A second report for the same ID must fail: the join is one-shot.
	if _, err := l.Report(id, 80); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("double report err = %v, want ErrUnknownID", err)
	}
}

func TestReportUnknownAndInvalid(t *testing.T) {
	l := New(Config{})
	if _, err := l.Report("nope", 5); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown id err = %v", err)
	}
	id := l.Begin(Prediction{App: "lu", Predicted: 10})
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := l.Report(id, bad); err == nil {
			t.Fatalf("actual=%v accepted", bad)
		}
	}
	// The invalid outcomes must not have consumed the pending entry.
	if _, err := l.Report(id, 10); err != nil {
		t.Fatalf("valid report after invalid ones: %v", err)
	}
	st := l.Status()
	if st.Unmatched != 5 {
		t.Fatalf("unmatched = %d, want 5 (1 unknown + 4 invalid)", st.Unmatched)
	}
}

// TestPendingEviction: the pending ring keeps exactly the newest
// pendingCap Begin entries, oldest-first, however many sequence numbers
// ReportPair takes between the Begins (one stretch takes more than a
// ring's worth), and no two IDs the ledger hands out are equal.
func TestPendingEviction(t *testing.T) {
	l := New(Config{})
	ids := make([]string, pendingCap+2)
	pairs := 0
	seen := map[string]bool{}
	for i := range ids {
		ids[i] = l.Begin(Prediction{App: "lu", Predicted: 10})
		n := i % 3
		if i == pendingCap/2 {
			n = pendingCap + 5
		}
		for k := 0; k < n; k++ {
			s := l.ReportPair(Prediction{App: "lu", Scheduler: "pair", Predicted: 10}, 10)
			if seen[s.ID] {
				t.Fatalf("ReportPair reissued ID %s", s.ID)
			}
			seen[s.ID] = true
			pairs++
		}
	}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("Begin reissued ID %s", id)
		}
		seen[id] = true
	}
	// The two oldest must have been evicted and counted.
	for _, id := range ids[:2] {
		if _, err := l.Report(id, 10); !errors.Is(err, ErrUnknownID) {
			t.Fatalf("evicted id %s still joinable (err=%v)", id, err)
		}
	}
	for _, id := range ids[2:] {
		if _, err := l.Report(id, 10); err != nil {
			t.Fatalf("resident id %s: %v", id, err)
		}
	}
	if st := l.Status(); st.Expired != 2 || st.Joined != uint64(pendingCap+pairs) || st.Pending != 0 {
		t.Fatalf("expired=%d joined=%d pending=%d, want 2/%d/0", st.Expired, st.Joined, st.Pending, pendingCap+pairs)
	}
}

// TestPendingReissuedID: Begin assigns its own ID even when the caller
// sets one, so the caller's ID never joins and two Begins never share an
// ID.
func TestPendingReissuedID(t *testing.T) {
	l := New(Config{})
	a := l.Begin(Prediction{ID: "x", App: "lu", Predicted: 10})
	b := l.Begin(Prediction{ID: "x", App: "lu", Predicted: 20})
	if a == "x" || b == "x" || a == b {
		t.Fatalf("Begin returned %q and %q for a caller's ID \"x\"", a, b)
	}
	if _, err := l.Report("x", 20); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("the caller's ID joined (err=%v)", err)
	}
	for id, want := range map[string]float64{a: 10, b: 20} {
		if s, err := l.Report(id, 20); err != nil || s.ID != id || s.Predicted != want {
			t.Fatalf("Report(%s) = %+v, %v; want predicted %v", id, s, err, want)
		}
	}
	if st := l.Status(); st.Expired != 0 || st.Pending != 0 || st.Joined != 2 {
		t.Fatalf("status %+v, want 2 joined and nothing pending or expired", st)
	}
}

// TestReportHostileIDs: Report parses the ID an RPC caller sends, so
// every spelling but the one Begin returned must miss — counted as
// unmatched, joining nothing and leaving the pending entry in place.
func TestReportHostileIDs(t *testing.T) {
	l := New(Config{})
	live := l.Begin(Prediction{App: "lu", Predicted: 10})
	if live != "p1" {
		t.Fatalf("first ID = %q, want p1", live)
	}
	for _, id := range []string{
		"", "p", "p0", "P1", "p-1", "p+1", "p1x", " p1", "p01", "p1 ",
		"p10000000000000001",                       // 17 hex digits
		"p" + strings.Repeat("f", 17),              // past uint64
		"p" + strconv.FormatUint(1+pendingCap, 16), // live's slot, never issued
	} {
		before := l.Status()
		if _, err := l.Report(id, 10); !errors.Is(err, ErrUnknownID) {
			t.Fatalf("Report(%q) err = %v, want ErrUnknownID", id, err)
		}
		st := l.Status()
		if st.Unmatched != before.Unmatched+1 || st.Joined != 0 || st.Pending != 1 {
			t.Fatalf("Report(%q) left %+v", id, st)
		}
	}
	// An ID whose slot the ring has since reused misses; the slot's
	// new occupant joins.
	old := l.Begin(Prediction{App: "lu", Predicted: 20})
	var reuser string
	for i := 0; i < pendingCap; i++ {
		reuser = l.Begin(Prediction{App: "lu", Predicted: 30})
	}
	if _, err := l.Report(old, 10); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("Report of overwritten %s err = %v, want ErrUnknownID", old, err)
	}
	if s, err := l.Report(reuser, 10); err != nil || s.Predicted != 30 {
		t.Fatalf("Report(%s) = %+v, %v", reuser, s, err)
	}
	if st := l.Status(); st.Joined != 1 || st.Expired != 2 {
		t.Fatalf("status %+v, want 1 joined and 2 expired", st)
	}
}

// TestBeginAllocs: on a calibration key it has seen, Begin allocates only
// the ID it returns.
func TestBeginAllocs(t *testing.T) {
	l := New(Config{})
	p := Prediction{App: "lu", Scheduler: "cs", AgeBucket: "<1s", Predicted: 10, TraceID: obs.FormatID(0xabc)}
	for i := 0; i < 256; i++ { // interns the key; later IDs are all three digits
		l.Begin(p)
	}
	if n := testing.AllocsPerRun(1000, func() { l.Begin(p) }); n > 1 {
		t.Fatalf("Begin allocates %v times, want at most 1", n)
	}
}

// TestPendingFootprintFlat: the pending store retains at most 64 B per
// entry, and its memory does not grow with the number of predictions
// that have passed through it.
func TestPendingFootprintFlat(t *testing.T) {
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	empty := heap()
	l := New(Config{})
	heapAfter := func(n int) int64 {
		for i := 0; i < n; i++ {
			l.Begin(Prediction{App: "lu", Predicted: 10})
		}
		return heap()
	}
	warm := heapAfter(100_000)
	churned := heapAfter(1_900_000)
	runtime.KeepAlive(l)
	if per := (warm - empty) / pendingCap; per > 64 {
		t.Fatalf("%d B retained per pending entry, want at most 64", per)
	}
	if churned > warm+256<<10 {
		t.Fatalf("heap %d kB after 2M predictions, %d kB after 100k", churned>>10, warm>>10)
	}
}

func TestBucketStatsAndBand(t *testing.T) {
	l := New(Config{})
	k := Key{App: "lu", Scheduler: "cs", AgeBucket: "<1s"}
	// 10 over-predictions at +20%, 10 under at -10%.
	for i := 0; i < 10; i++ {
		l.ReportPair(Prediction{App: k.App, Scheduler: k.Scheduler, AgeBucket: k.AgeBucket, Predicted: 120}, 100)
		l.ReportPair(Prediction{App: k.App, Scheduler: k.Scheduler, AgeBucket: k.AgeBucket, Predicted: 90}, 100)
	}
	stats := l.Stats(StatsQuery{App: "lu"})
	if len(stats) != 1 {
		t.Fatalf("stats buckets = %d, want 1", len(stats))
	}
	bs := stats[0]
	if bs.Count != 20 {
		t.Fatalf("count = %d", bs.Count)
	}
	if math.Abs(bs.BiasPct-5) > 1e-9 { // mean of +20 and -10
		t.Fatalf("bias = %v, want +5", bs.BiasPct)
	}
	if math.Abs(bs.MAPEPct-15) > 1e-9 {
		t.Fatalf("MAPE = %v, want 15", bs.MAPEPct)
	}
	band := l.BandFor(k)
	if band.Samples != 20 {
		t.Fatalf("band samples = %d", band.Samples)
	}
	// The band must straddle zero and bracket the two error modes within
	// log-bucket resolution.
	if band.LowPct >= 0 || band.HighPct <= 0 {
		t.Fatalf("band [%v, %v] does not straddle 0", band.LowPct, band.HighPct)
	}
	if band.LowPct < -25 || band.HighPct > 50 {
		t.Fatalf("band [%v, %v] implausibly wide for ±20%% errors", band.LowPct, band.HighPct)
	}
	// An unseen or under-sampled bucket yields no band.
	if b := l.BandFor(Key{App: "ghost"}); b.Samples != 0 {
		t.Fatalf("ghost band = %+v", b)
	}
	thin := Key{App: "thin"}
	for i := 0; i < minBandSamples-1; i++ {
		l.ReportPair(Prediction{App: thin.App, Predicted: 120}, 100)
	}
	if b := l.BandFor(thin); b.Samples != 0 {
		t.Fatalf("band with %d samples = %+v, want none below %d", minBandSamples-1, b, minBandSamples)
	}
	l.ReportPair(Prediction{App: thin.App, Predicted: 120}, 100)
	if b := l.BandFor(thin); b.Samples != minBandSamples {
		t.Fatalf("band at %d samples = %+v", minBandSamples, b)
	}
}

func TestDriftFlipsAndRecovers(t *testing.T) {
	l := New(Config{})
	good := func() { l.ReportPair(Prediction{App: "lu", Predicted: 101}, 100) } // 1% err
	bad := func() { l.ReportPair(Prediction{App: "lu", Predicted: 180}, 100) }  // 80% err
	for i := 0; i < driftWindow; i++ {
		good()
	}
	if !l.CalibrationOK() {
		t.Fatal("calibration not OK on 1% errors")
	}
	for i := 0; i < driftWindow; i++ {
		bad()
	}
	st := l.Status()
	if st.CalibrationOK {
		t.Fatalf("drift did not trip: %+v", st)
	}
	if st.WindowMAPEPct < driftFloorPct {
		t.Fatalf("window MAPE = %v, expected ≥ floor", st.WindowMAPEPct)
	}
	// Good outcomes flush the window and the alarm clears.
	for i := 0; i < driftWindow; i++ {
		good()
	}
	if !l.CalibrationOK() {
		t.Fatalf("calibration did not recover: %+v", l.Status())
	}
}

func TestDriftFloorTripsWithoutBaseline(t *testing.T) {
	// Biased from the very first join: the ratio rule can never fire
	// (window == baseline), so the absolute floor must.
	l := New(Config{})
	bad := func() { l.ReportPair(Prediction{App: "lu", Predicted: 150}, 100) } // 50% err
	for i := 0; i < driftMinSamples-1; i++ {
		bad()
	}
	if !l.CalibrationOK() {
		t.Fatalf("alarm before %d samples: %+v", driftMinSamples, l.Status())
	}
	bad()
	if l.CalibrationOK() {
		t.Fatalf("floor rule did not trip: %+v", l.Status())
	}
}

func TestSamplesNewestFirst(t *testing.T) {
	l := New(Config{})
	const n = sampleCap + 2
	for i := 1; i <= n; i++ {
		l.ReportPair(Prediction{App: fmt.Sprintf("a%d", i), Predicted: 10}, 10)
	}
	got := l.Samples(0)
	if len(got) != sampleCap {
		t.Fatalf("resident samples = %d, want %d", len(got), sampleCap)
	}
	for i, want := range []int{n, n - 1, n - 2} {
		if w := fmt.Sprintf("a%d", want); got[i].App != w {
			t.Fatalf("samples[%d].App = %s, want %s", i, got[i].App, w)
		}
	}
	if last := got[sampleCap-1].App; last != "a3" {
		t.Fatalf("oldest resident sample = %s, want a3", last)
	}
	if got2 := l.Samples(2); len(got2) != 2 || got2[0].App != fmt.Sprintf("a%d", n) {
		t.Fatalf("Samples(2) = %+v", got2)
	}
}

func TestAgeBucket(t *testing.T) {
	cases := map[float64]string{
		-1: "<1s", 0: "<1s", 0.9: "<1s", 1: "1-5s", 4.9: "1-5s",
		5: "5-30s", 29: "5-30s", 30: "30s+", 300: "30s+",
	}
	for age, want := range cases {
		if got := AgeBucket(age); got != want {
			t.Fatalf("AgeBucket(%v) = %s, want %s", age, got, want)
		}
	}
}

func TestConcurrentBeginReport(t *testing.T) {
	l := New(Config{})
	// Each goroutine leaves every other prediction pending, so together
	// they turn the pending ring several times and evict under contention.
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			app := fmt.Sprintf("app%d", g)
			for i := 0; i < perG; i++ {
				id := l.Begin(Prediction{App: app, Predicted: 100})
				if i%2 == 0 {
					// Another goroutine may have evicted id already; both
					// outcomes must keep the counters consistent.
					l.Report(id, 90+float64(i%20)) //nolint:errcheck
				}
				l.BandFor(Key{App: app})
				if i%32 == 0 {
					l.Status()
					l.Stats(StatsQuery{App: app})
					l.Samples(8)
				}
			}
		}(g)
	}
	wg.Wait()
	st := l.Status()
	const total, reported = goroutines * perG, goroutines * perG / 2
	if st.Predictions != total || st.Outcomes != reported {
		t.Fatalf("predictions=%d outcomes=%d, want %d/%d", st.Predictions, st.Outcomes, total, reported)
	}
	if st.Joined+st.Unmatched != reported {
		t.Fatalf("joined=%d unmatched=%d don't partition %d outcomes", st.Joined, st.Unmatched, reported)
	}
	if st.Expired == 0 || st.Pending > pendingCap {
		t.Fatalf("expired=%d pending=%d: %d predictions left pending must evict", st.Expired, st.Pending, total-reported)
	}
	if st.Joined+st.Expired+uint64(st.Pending) != total {
		t.Fatalf("joined=%d expired=%d pending=%d don't partition %d predictions", st.Joined, st.Expired, st.Pending, total)
	}
	if st.Unmatched > st.Expired {
		t.Fatalf("unmatched=%d > expired=%d: every miss must come from eviction", st.Unmatched, st.Expired)
	}
}
