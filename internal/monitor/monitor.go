package monitor

import (
	"math/rand"
	"sync/atomic"

	"cbes/internal/des"
	"cbes/internal/obs"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
)

// Monitoring observability. Ages are in simulated seconds — the clock
// the sensors themselves run on; a growing snapshot age means the
// scheduler is deciding on stale forecasts.
var (
	metricSamples = obs.Default().Counter(
		"cbes_monitor_samples_total", "Completed cluster-wide sensor sampling rounds.")
	metricRefreshes = obs.Default().Counter(
		"cbes_monitor_forecast_refreshes_total", "Per-node forecaster updates (CPU + NIC).")
	metricSnapshots = obs.Default().Counter(
		"cbes_monitor_snapshots_total", "Resource-availability snapshots assembled.")
	gaugeSnapshotAge = obs.Default().Gauge(
		"cbes_monitor_snapshot_age_seconds",
		"Simulated age of the sensor data behind the most recent snapshot.")
	gaugeNodesDown = obs.Default().Gauge(
		"cbes_monitor_nodes_down",
		"Nodes marked down (crashed or dead sensor) in the most recent snapshot.")
	gaugeNodesSuspect = obs.Default().Gauge(
		"cbes_monitor_nodes_suspect",
		"Nodes marked suspect (stale sensor data) in the most recent snapshot.")
	gaugeEpoch = obs.Default().Gauge(
		"cbes_monitor_snapshot_epoch",
		"Monotonic version of the monitor's observable state; snapshots sharing an epoch are identical.")
)

// Health classifies a node's monitoring state in a snapshot.
type Health int8

// Node health states, ordered by severity.
const (
	// HealthOK: fresh sensor data, node reachable.
	HealthOK Health = iota
	// HealthSuspect: the node answered once, but its last successful sample
	// is older than the staleness TTL (stalled daemon, missed rounds). Its
	// forecasts are not trustworthy; consumers fall back to profile-only
	// estimates and flag the result degraded.
	HealthSuspect
	// HealthDown: the sensor is dead or its last sample found the node
	// unreachable (crashed). The node must not receive work.
	HealthDown
)

func (h Health) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthSuspect:
		return "suspect"
	case HealthDown:
		return "down"
	}
	return "unknown"
}

// Snapshot is an on-demand picture of cluster resource availability — the
// input the CBES core combines with profiles and mapping definitions. One
// entry per node.
type Snapshot struct {
	At des.Time
	// Epoch is the monitor's state version at assembly time (see
	// SystemMonitor.Epoch). Two snapshots of the same monitor with equal
	// epochs carry identical forecasts and health; a consumer may therefore
	// cache anything derived from a snapshot under its epoch and invalidate
	// by epoch comparison alone. Hand-built snapshots leave it 0.
	Epoch    uint64
	AvailCPU []float64 // forecast CPU availability a new task would see (ACPU_j)
	NICUtil  []float64 // forecast utilization of the node's edge link [0,1)
	// Health classifies each node's monitoring state. A nil slice (older
	// callers, synthetic snapshots) means every node is healthy — use
	// HealthOf rather than indexing directly.
	Health []Health
	// SampleAge is the simulated seconds since each node's last successful
	// sensor sample. Nil means fresh everywhere; use AgeOf.
	SampleAge []float64
}

// Clone deep-copies the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	return &Snapshot{
		At:        s.At,
		Epoch:     s.Epoch,
		AvailCPU:  append([]float64(nil), s.AvailCPU...),
		NICUtil:   append([]float64(nil), s.NICUtil...),
		Health:    append([]Health(nil), s.Health...),
		SampleAge: append([]float64(nil), s.SampleAge...),
	}
}

// HealthOf reports node i's health, treating missing health data (synthetic
// or pre-health snapshots) as healthy.
func (s *Snapshot) HealthOf(i int) Health {
	if i < 0 || i >= len(s.Health) {
		return HealthOK
	}
	return s.Health[i]
}

// AgeOf reports the sample age of node i in simulated seconds (0 when the
// snapshot carries no staleness data).
func (s *Snapshot) AgeOf(i int) float64 {
	if i < 0 || i >= len(s.SampleAge) {
		return 0
	}
	return s.SampleAge[i]
}

// MaxAge reports the worst (largest) sample age across the given nodes in
// simulated seconds — the staleness of the most out-of-date sensor a
// prediction over those nodes depended on. Accuracy calibration buckets
// predictions by this value: estimates from stale data should err more,
// and bucketing makes that measurable. Duplicate or out-of-range node
// indices are tolerated (out-of-range ages are 0, matching AgeOf).
func (s *Snapshot) MaxAge(nodes []int) float64 {
	max := 0.0
	for _, n := range nodes {
		if a := s.AgeOf(n); a > max {
			max = a
		}
	}
	return max
}

// HealthCounts tallies the snapshot's node health states.
func (s *Snapshot) HealthCounts() (ok, suspect, down int) {
	ok = len(s.AvailCPU)
	for _, h := range s.Health {
		switch h {
		case HealthSuspect:
			suspect++
			ok--
		case HealthDown:
			down++
			ok--
		}
	}
	return ok, suspect, down
}

// IdleSnapshot returns the snapshot of a perfectly idle, healthy n-node
// cluster.
func IdleSnapshot(n int) *Snapshot {
	s := &Snapshot{AvailCPU: make([]float64, n), NICUtil: make([]float64, n)}
	for i := range s.AvailCPU {
		s.AvailCPU[i] = 1.0
	}
	return s
}

// NoNoise requests exactly noiseless sensors. The zero Config value keeps
// the 0.01 default, so "no noise at all" needs an explicit sentinel (any
// negative Noise works; this constant is the documented spelling).
const NoNoise = -1.0

const (
	// sampleInterval is the sensors' sampling period.
	sampleInterval = des.Second
	// staleTTL is how old a node's last successful sample may grow before
	// the node is marked HealthSuspect.
	staleTTL = 3 * sampleInterval
)

// Config tunes a SystemMonitor.
type Config struct {
	// Noise is the relative standard deviation of sensor measurement error
	// (default 0.01). Sensors on real systems never read ground truth
	// exactly. Set NoNoise (or any negative value) for noiseless sensors.
	Noise float64
	// Seed drives the sensor noise generator.
	Seed int64
}

func (c Config) noise() float64 {
	if c.Noise < 0 { // NoNoise sentinel: truly noiseless sensors
		return 0
	}
	if c.Noise > 0 {
		return c.Noise
	}
	return 0.01
}

// SystemMonitor owns the per-node sensors and daemons. It is the
// system-dedicated half of the CBES infrastructure (§2).
type SystemMonitor struct {
	vc   *vcluster.Cluster
	net  *simnet.Network
	cfg  Config
	cpuF []LastValue
	nicF []LastValue
	// lastBusy remembers per-node edge-link busy time at the previous
	// sample, to compute utilization over the sampling window.
	lastBusy []des.Time
	samples  uint64
	// lastSample is the simulated time of the most recent sampling round;
	// Snapshot reports the forecast age relative to it.
	lastSample des.Time
	// lastUpdate is the per-node time of the last successful sensor sample
	// (skipped by dead sensors, stalls, and unreachable nodes); Snapshot
	// derives staleness from it.
	lastUpdate []des.Time
	// sensorDown marks nodes whose sensor daemon has died (fault
	// injection): no readings at all until restored.
	sensorDown []bool
	// unreachable marks nodes whose last sample attempt found them crashed.
	unreachable []bool
	// stalledUntil pauses the whole monitoring daemon (a wedged collector):
	// sampling rounds before this time are skipped entirely.
	stalledUntil des.Time
	// epoch versions the monitor's observable state (forecasts + health).
	// Atomic so readers outside engine context can poll it lock-free.
	epoch atomic.Uint64
	// lastHealth remembers the health vector of the previous Snapshot, so
	// purely time-driven transitions (data aging past the TTL with no
	// sampling round, e.g. during a stall) still bump the epoch.
	lastHealth []Health
}

// NewSystemMonitor attaches sensors to every node of the virtual cluster
// and starts the sampling daemon; eng.Shutdown reaps it.
func NewSystemMonitor(vc *vcluster.Cluster, net *simnet.Network, cfg Config) *SystemMonitor {
	n := vc.Topo.NumNodes()
	m := &SystemMonitor{
		vc:          vc,
		net:         net,
		cfg:         cfg,
		cpuF:        make([]LastValue, n),
		nicF:        make([]LastValue, n),
		lastBusy:    make([]des.Time, n),
		lastUpdate:  make([]des.Time, n),
		sensorDown:  make([]bool, n),
		unreachable: make([]bool, n),
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 0x5eed))
	// Take an immediate first sample so snapshots never rest on forecaster
	// priors (a fresh LastValue would otherwise report 100 % NIC
	// utilization for an idle link).
	m.sample(rng)
	vc.Eng.Spawn("sysmon", func(p *des.Proc) {
		for {
			p.Sleep(sampleInterval)
			m.sample(rng)
		}
	})
	return m
}

// sample reads every node's sensors once. Dead sensors are skipped
// (their nodes' data ages until restored), a stalled daemon skips the
// whole round, and a crashed node is recorded as unreachable instead of
// producing a reading. Reads go through the cluster's and network's read
// methods, so sampling an idle node or link creates no simulator state.
func (m *SystemMonitor) sample(rng *rand.Rand) {
	now := m.vc.Eng.Now()
	if now < m.stalledUntil {
		return // wedged collector: no sensor reads this round
	}
	window := sampleInterval.Seconds()
	refreshed := 0
	for i := range m.cpuF {
		if m.sensorDown[i] {
			continue // dead sensor daemon: no reading, lastUpdate frozen
		}
		if m.vc.Down(i) {
			// The sensor answered but found the node crashed: record
			// unreachability rather than feeding a zero into the forecaster
			// (the pre-crash history stays intact for the recovery).
			m.unreachable[i] = true
			continue
		}
		m.unreachable[i] = false

		// CPU sensor: what share would a new process get right now.
		truth := m.vc.AvailableToNewTask(i)
		v := truth * (1 + m.cfg.noise()*rng.NormFloat64())
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		m.cpuF[i].Update(v)

		// NIC sensor: edge-link utilization over the last window (both
		// directions, normalized to 2x window for full duplex).
		busy := m.net.LinkBusy(m.net.EdgeLink(i))
		du := (busy - m.lastBusy[i]).Seconds() / (2 * window)
		m.lastBusy[i] = busy
		if du < 0 {
			du = 0
		}
		if du > 1 {
			du = 1
		}
		m.nicF[i].Update(du)
		m.lastUpdate[i] = now
		refreshed++
	}
	m.samples++
	m.lastSample = now
	metricSamples.Inc()
	metricRefreshes.Add(uint64(2 * refreshed))
	m.BumpEpoch()
}

// Samples reports how many sampling rounds have completed.
func (m *SystemMonitor) Samples() uint64 { return m.samples }

// Epoch reports the monitor's current state version. It increases
// monotonically on every event that can change what a Snapshot would
// contain: a completed sampling round, a sensor dropping or reviving, a
// monitor stall, an externally signalled fault transition (BumpEpoch),
// and a health flip detected at Snapshot-assembly time (data aging past
// the TTL). Between equal Epoch reads, snapshots are identical — the
// invalidation contract the service's prediction cache is keyed on.
// Safe to read from any goroutine.
func (m *SystemMonitor) Epoch() uint64 { return m.epoch.Load() }

// BumpEpoch advances the state version. The monitor calls it internally;
// external mutators of the cluster the monitor watches (fault injection
// crashing nodes or degrading links behind the sensors' back) call it so
// epoch-keyed caches cannot outlive the transition.
func (m *SystemMonitor) BumpEpoch() {
	gaugeEpoch.Set(float64(m.epoch.Add(1)))
}

// DropSensor kills node i's sensor daemon (fault injection): the node
// produces no further readings and its snapshot health becomes
// HealthDown until RestoreSensor. Must be called from engine context.
func (m *SystemMonitor) DropSensor(i int) {
	m.sensorDown[i] = true
	m.BumpEpoch()
}

// RestoreSensor revives node i's sensor daemon; the next sampling round
// refreshes its data. Must be called from engine context.
func (m *SystemMonitor) RestoreSensor(i int) {
	m.sensorDown[i] = false
	m.BumpEpoch()
}

// StallFor wedges the whole monitoring daemon for d of simulated time:
// sampling rounds in the window are skipped, so every node's data ages
// (and, past the TTL, goes HealthSuspect). Must be called from engine
// context.
func (m *SystemMonitor) StallFor(d des.Time) {
	until := m.vc.Eng.Now() + d
	if until > m.stalledUntil {
		m.stalledUntil = until
	}
	m.BumpEpoch()
}

// Snapshot assembles the current cluster-wide forecast. The cost is O(N)
// in the number of nodes: this, combined with the path-class latency model
// (internal/netmodel), is the paper's O(N) approximation of cluster
// resource availability.
//
// Snapshot must not race itself or the sampling daemon (call it with the
// engine quiescent, as every existing caller does): it compares the
// derived health vector against the previous call's to catch purely
// time-driven transitions — a node whose data aged past the TTL since
// the last snapshot flips to suspect without any sampling round, and the
// epoch must advance with it or an epoch-keyed cache would keep serving
// the node as healthy.
func (m *SystemMonitor) Snapshot() *Snapshot {
	n := len(m.cpuF)
	s := &Snapshot{
		At:        m.vc.Eng.Now(),
		AvailCPU:  make([]float64, n),
		NICUtil:   make([]float64, n),
		Health:    make([]Health, n),
		SampleAge: make([]float64, n),
	}
	suspect, down := 0, 0
	for i := 0; i < n; i++ {
		s.AvailCPU[i] = m.cpuF[i].Forecast()
		s.NICUtil[i] = m.nicF[i].Forecast()
		age := s.At - m.lastUpdate[i]
		s.SampleAge[i] = age.Seconds()
		switch {
		case m.sensorDown[i] || m.unreachable[i]:
			// Dead sensor or crashed node: the node must not receive work.
			// Zero availability keeps even health-blind consumers away.
			s.Health[i] = HealthDown
			s.AvailCPU[i] = 0
			down++
		case age > staleTTL:
			s.Health[i] = HealthSuspect
			suspect++
		}
	}
	if m.lastHealth != nil && !healthEqual(m.lastHealth, s.Health) {
		m.BumpEpoch()
	}
	m.lastHealth = append(m.lastHealth[:0], s.Health...)
	s.Epoch = m.Epoch()
	metricSnapshots.Inc()
	gaugeSnapshotAge.Set((s.At - m.lastSample).Seconds())
	gaugeNodesDown.Set(float64(down))
	gaugeNodesSuspect.Set(float64(suspect))
	return s
}

// healthEqual reports whether two health vectors are identical.
func healthEqual(a, b []Health) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// LastHealthGauges reports the down/suspect node counts published by the
// most recent Snapshot of any monitor in the process — an atomic,
// engine-lock-free read for readiness probes. The values refresh whenever
// a snapshot is taken (every RPC that reads cluster state takes one).
func LastHealthGauges() (down, suspect int) {
	return int(gaugeNodesDown.Value()), int(gaugeNodesSuspect.Value())
}
