// Package faults injects deterministic, seeded fault schedules into the
// simulated cluster. A Schedule is a time-ordered list of fault events —
// node crashes and recoveries, link degradations, sensor dropouts,
// monitor-daemon stalls — that an Injector replays through the DES engine,
// so every layer above (monitor health, core degraded predictions,
// scheduler pool filtering, daemon readiness) can be exercised and tested
// against exactly reproducible failure scenarios.
//
// Determinism contract: the same topology, seed, and schedule produce the
// same sequence of simulator mutations at the same simulated times, hence
// identical snapshots and predictions (pinned by TestInjectorDeterminism).
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"cbes/internal/cluster"
	"cbes/internal/des"
	"cbes/internal/monitor"
	"cbes/internal/obs"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
)

var metricInjected = obs.Default().CounterVec(
	"cbes_faults_injected_total",
	"Fault events injected into the simulated cluster, by kind.",
	"kind")

// Kind enumerates the fault event types the injector can replay.
type Kind int

// The fault kinds, one per hook exposed by the simulation layers.
const (
	NodeCrash     Kind = iota // vcluster: node goes down, tasks freeze
	NodeRecover               // vcluster: node comes back, tasks resume
	LinkDegrade               // simnet: bandwidth scaled by Factor
	LinkRestore               // simnet: bandwidth back to nominal
	SensorDrop                // monitor: node's sensor daemon dies
	SensorRestore             // monitor: sensor daemon revived
	MonitorStall              // monitor: whole daemon wedged for Duration
)

var kindNames = [...]string{
	NodeCrash:     "node_crash",
	NodeRecover:   "node_recover",
	LinkDegrade:   "link_degrade",
	LinkRestore:   "link_restore",
	SensorDrop:    "sensor_drop",
	SensorRestore: "sensor_restore",
	MonitorStall:  "monitor_stall",
}

// String names the kind for metrics labels and logs.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Fault is one scheduled fault event.
type Fault struct {
	At   des.Time // absolute simulated time of injection
	Kind Kind
	// Node is the target node for NodeCrash/NodeRecover/SensorDrop/
	// SensorRestore; ignored otherwise.
	Node int
	// Link is the target topology link for LinkDegrade/LinkRestore.
	Link int
	// Factor is the bandwidth scale for LinkDegrade (clamped by simnet).
	Factor float64
	// Duration is the stall length for MonitorStall.
	Duration des.Time
}

// Schedule is a list of fault events. Install sorts it by time, so callers
// may build it in any order.
type Schedule []Fault

// Injector replays a fault schedule into the simulation layers of one
// system. Create with NewInjector, arm with Install; injection then happens
// as the engine advances past each fault's timestamp.
type Injector struct {
	vc  *vcluster.Cluster
	net *simnet.Network
	mon *monitor.SystemMonitor

	injected int
}

// NewInjector wires an injector to the simulation layers it mutates. mon
// may be nil if the schedule contains no sensor or stall faults.
func NewInjector(vc *vcluster.Cluster, net *simnet.Network, mon *monitor.SystemMonitor) *Injector {
	return &Injector{vc: vc, net: net, mon: mon}
}

// validate rejects faults that reference nonexistent targets, so a bad
// schedule fails loudly at Install time instead of panicking mid-sim.
func (in *Injector) validate(f Fault) error {
	topo := in.vc.Topo
	switch f.Kind {
	case NodeCrash, NodeRecover:
		if f.Node < 0 || f.Node >= topo.NumNodes() {
			return fmt.Errorf("faults: %s targets invalid node %d", f.Kind, f.Node)
		}
	case SensorDrop, SensorRestore:
		if f.Node < 0 || f.Node >= topo.NumNodes() {
			return fmt.Errorf("faults: %s targets invalid node %d", f.Kind, f.Node)
		}
		if in.mon == nil {
			return fmt.Errorf("faults: %s requires a monitor", f.Kind)
		}
	case LinkDegrade, LinkRestore:
		if f.Link < 0 || f.Link >= topo.NumLinks() {
			return fmt.Errorf("faults: %s targets invalid link %d", f.Kind, f.Link)
		}
	case MonitorStall:
		if in.mon == nil {
			return fmt.Errorf("faults: %s requires a monitor", f.Kind)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("faults: %s needs a positive duration", f.Kind)
		}
	default:
		return fmt.Errorf("faults: unknown kind %d", int(f.Kind))
	}
	return nil
}

// Install validates the schedule and arms one DES event per fault. Faults
// whose time has already passed fire at the current simulated time (the
// engine clamps). Install may be called more than once to layer schedules.
func (in *Injector) Install(sched Schedule) error {
	for _, f := range sched {
		if err := in.validate(f); err != nil {
			return err
		}
	}
	ordered := append(Schedule(nil), sched...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	for _, f := range ordered {
		f := f
		in.vc.Eng.ScheduleAt(f.At, func() { in.apply(f) })
	}
	return nil
}

// apply performs one fault mutation. Runs in engine context. Kinds that
// mutate the cluster behind the monitor's sensors (crashes, link
// degradations) explicitly bump the monitor's snapshot epoch so
// epoch-keyed prediction caches cannot serve pre-fault answers; the
// monitor kinds bump it themselves.
func (in *Injector) apply(f Fault) {
	switch f.Kind {
	case NodeCrash:
		in.vc.Crash(f.Node)
		in.bumpMonitor()
	case NodeRecover:
		in.vc.Recover(f.Node)
		in.bumpMonitor()
	case LinkDegrade:
		in.net.DegradeLink(f.Link, f.Factor)
		in.bumpMonitor()
	case LinkRestore:
		in.net.RestoreLink(f.Link)
		in.bumpMonitor()
	case SensorDrop:
		in.mon.DropSensor(f.Node)
	case SensorRestore:
		in.mon.RestoreSensor(f.Node)
	case MonitorStall:
		in.mon.StallFor(f.Duration)
	}
	in.injected++
	metricInjected.With(f.Kind.String()).Inc()
}

// bumpMonitor advances the snapshot epoch when a monitor is attached.
func (in *Injector) bumpMonitor() {
	if in.mon != nil {
		in.mon.BumpEpoch()
	}
}

// Injected reports how many faults have fired so far.
func (in *Injector) Injected() int { return in.injected }

// RandomConfig tunes RandomSchedule.
type RandomConfig struct {
	Seed    int64
	Horizon des.Time // faults land in (0, Horizon]; required
	// Crashes is the number of crash/recover pairs (recovery always
	// follows its crash within the horizon).
	Crashes int
	// Degrades is the number of link degrade/restore pairs.
	Degrades int
	// SensorDrops is the number of sensor drop/restore pairs.
	SensorDrops int
	// Stalls is the number of monitor stalls; each lasts up to a tenth
	// of the horizon.
	Stalls int
}

// RandomSchedule generates a reproducible schedule of paired faults over
// the topology: each disruptive event is followed by its matching recovery
// before the horizon, so the cluster ends the run converging back to
// healthy. The same topology and config always yield the same schedule.
func RandomSchedule(topo *cluster.Topology, cfg RandomConfig) Schedule {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Horizon <= 0 {
		return nil
	}
	var sched Schedule
	// pairTimes draws a start in the first 2/3 of the horizon and an end
	// strictly after it, so every outage both happens and heals on-screen.
	pairTimes := func() (des.Time, des.Time) {
		start := 1 + des.Time(rng.Int63n(int64(cfg.Horizon)*2/3))
		end := start + 1 + des.Time(rng.Int63n(int64(cfg.Horizon-start)))
		return start, end
	}
	for i := 0; i < cfg.Crashes; i++ {
		node := rng.Intn(topo.NumNodes())
		at, until := pairTimes()
		sched = append(sched,
			Fault{At: at, Kind: NodeCrash, Node: node},
			Fault{At: until, Kind: NodeRecover, Node: node})
	}
	for i := 0; i < cfg.Degrades && topo.NumLinks() > 0; i++ {
		link := rng.Intn(topo.NumLinks())
		factor := 0.05 + 0.45*rng.Float64() // 5%..50% of nominal bandwidth
		at, until := pairTimes()
		sched = append(sched,
			Fault{At: at, Kind: LinkDegrade, Link: link, Factor: factor},
			Fault{At: until, Kind: LinkRestore, Link: link})
	}
	for i := 0; i < cfg.SensorDrops; i++ {
		node := rng.Intn(topo.NumNodes())
		at, until := pairTimes()
		sched = append(sched,
			Fault{At: at, Kind: SensorDrop, Node: node},
			Fault{At: until, Kind: SensorRestore, Node: node})
	}
	for i := 0; i < cfg.Stalls; i++ {
		at := 1 + des.Time(rng.Int63n(int64(cfg.Horizon)))
		d := 1 + des.Time(rng.Int63n(int64(cfg.Horizon/10)))
		sched = append(sched, Fault{At: at, Kind: MonitorStall, Duration: d})
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched
}
