package monitor

import (
	"math"
	"testing"

	"cbes/internal/des"
)

// TestNoNoiseIsExactlyNoiseless pins the NoNoise sentinel: the zero Config
// defaults Noise to 0.01, so "exactly zero noise" needs Noise: NoNoise.
func TestNoNoiseIsExactlyNoiseless(t *testing.T) {
	if got := (Config{Noise: NoNoise}).noise(); got != 0 {
		t.Fatalf("NoNoise noise() = %v, want exactly 0", got)
	}
	if got := (Config{}).noise(); got != 0.01 {
		t.Fatalf("default noise() = %v, want 0.01", got)
	}
	if got := (Config{Noise: 0.05}).noise(); got != 0.05 {
		t.Fatalf("explicit noise() = %v, want 0.05", got)
	}

	eng, vc, _, mon := newMonEnv(Config{Noise: NoNoise})
	defer eng.Shutdown()
	eng.ScheduleAt(2*des.Second, func() { vc.SetAvailability(1, 0.37) })
	eng.RunUntil(10 * des.Second)
	snap := mon.Snapshot()
	// Noiseless LastValue sensors read ground truth bit-for-bit.
	if snap.AvailCPU[1] != 0.37 {
		t.Fatalf("noiseless forecast = %v, want exactly 0.37", snap.AvailCPU[1])
	}
	if snap.AvailCPU[0] != 1.0 {
		t.Fatalf("noiseless idle forecast = %v, want exactly 1", snap.AvailCPU[0])
	}
}

func TestSensorDropMarksNodeDown(t *testing.T) {
	eng, _, _, mon := newMonEnv(Config{Noise: NoNoise})
	defer eng.Shutdown()
	eng.ScheduleAt(3*des.Second, func() { mon.DropSensor(2) })
	eng.RunUntil(6 * des.Second)
	snap := mon.Snapshot()
	if snap.HealthOf(2) != HealthDown {
		t.Fatalf("health = %v, want down", snap.HealthOf(2))
	}
	if snap.AvailCPU[2] != 0 {
		t.Fatalf("down node AvailCPU = %v, want 0", snap.AvailCPU[2])
	}
	if snap.HealthOf(1) != HealthOK {
		t.Fatalf("unaffected node health = %v", snap.HealthOf(1))
	}
	ok, suspect, down := snap.HealthCounts()
	if ok != 7 || suspect != 0 || down != 1 {
		t.Fatalf("counts = %d/%d/%d, want 7/0/1", ok, suspect, down)
	}
	if d, s := LastHealthGauges(); d != 1 || s != 0 {
		t.Fatalf("gauges = %d down/%d suspect, want 1/0", d, s)
	}

	eng.ScheduleAt(7*des.Second, func() { mon.RestoreSensor(2) })
	eng.RunUntil(10 * des.Second)
	snap = mon.Snapshot()
	if snap.HealthOf(2) != HealthOK {
		t.Fatalf("health after restore = %v, want ok", snap.HealthOf(2))
	}
	if snap.AvailCPU[2] != 1.0 {
		t.Fatalf("restored AvailCPU = %v, want 1", snap.AvailCPU[2])
	}
}

func TestCrashedNodeDetectedAtNextSample(t *testing.T) {
	eng, vc, _, mon := newMonEnv(Config{Noise: NoNoise})
	defer eng.Shutdown()
	eng.ScheduleAt(5*des.Second+des.Millisecond, func() { vc.Crash(4) })
	// Crash happens just after the t=5s sample: the monitor cannot know yet.
	eng.RunUntil(5*des.Second + 2*des.Millisecond)
	if h := mon.Snapshot().HealthOf(4); h != HealthOK {
		t.Fatalf("health before next sample = %v, want ok (detection delay)", h)
	}
	// By the next sampling round the unreachable node is marked down.
	eng.RunUntil(7 * des.Second)
	snap := mon.Snapshot()
	if h := snap.HealthOf(4); h != HealthDown {
		t.Fatalf("health after sample = %v, want down", h)
	}
	if snap.AvailCPU[4] != 0 {
		t.Fatalf("crashed node AvailCPU = %v, want 0", snap.AvailCPU[4])
	}

	eng.ScheduleAt(8*des.Second+des.Millisecond, func() { vc.Recover(4) })
	eng.RunUntil(11 * des.Second)
	if h := mon.Snapshot().HealthOf(4); h != HealthOK {
		t.Fatalf("health after recovery = %v, want ok", h)
	}
}

func TestStalenessMarksSuspect(t *testing.T) {
	// staleTTL is 3 intervals: data 2.5 intervals old is still fresh, and
	// a 5-interval stall must trip it.
	eng, _, _, mon := newMonEnv(Config{Noise: NoNoise})
	defer eng.Shutdown()
	eng.ScheduleAt(4*des.Second, func() { mon.StallFor(5 * des.Second) })
	eng.RunUntil(5*des.Second + des.Second/2)
	if h := mon.Snapshot().HealthOf(0); h != HealthOK {
		t.Fatalf("health = %v at age 2.5s, want ok under the %v TTL", h, staleTTL)
	}
	eng.RunUntil(8 * des.Second)
	snap := mon.Snapshot()
	for i := range snap.AvailCPU {
		if snap.HealthOf(i) != HealthSuspect {
			t.Fatalf("node %d health = %v during stall, want suspect", i, snap.HealthOf(i))
		}
	}
	if age := snap.AgeOf(0); math.Abs(age-5.0) > 0.5 {
		t.Fatalf("sample age = %v, want ≈5s (last sample at t=3s)", age)
	}
	if _, s := LastHealthGauges(); s != len(snap.AvailCPU) {
		t.Fatalf("suspect gauge = %d, want all %d nodes", s, len(snap.AvailCPU))
	}
	// Suspect data is still served (degraded prediction uses fallbacks),
	// availability forecasts are not zeroed.
	if snap.AvailCPU[0] != 1.0 {
		t.Fatalf("suspect node AvailCPU = %v, want last forecast 1.0", snap.AvailCPU[0])
	}
	eng.RunUntil(12 * des.Second)
	if h := mon.Snapshot().HealthOf(0); h != HealthOK {
		t.Fatalf("health after stall = %v, want ok", h)
	}
}

func TestHealthString(t *testing.T) {
	for h, want := range map[Health]string{
		HealthOK: "ok", HealthSuspect: "suspect", HealthDown: "down", Health(9): "unknown",
	} {
		if got := h.String(); got != want {
			t.Fatalf("Health(%d).String() = %q, want %q", h, got, want)
		}
	}
}
