package vcluster

import (
	"fmt"
	"math"
	"math/rand"

	"cbes/internal/cluster"
	"cbes/internal/des"
)

// Cluster is a topology animated with per-node CPUs. Network transport is
// provided separately by internal/simnet; higher layers (internal/mpisim)
// combine the two.
type Cluster struct {
	Eng  *des.Engine
	Topo *cluster.Topology
	// cpus[id] is created on node id's first touch: a run pays for the
	// nodes it computes on, loads or crashes, not for the whole topology.
	// An idle CPU created late equals one created at time 0 (with no
	// tasks, advance accrues nothing), and the read methods below answer
	// untouched nodes from those idle defaults.
	cpus    []*CPU
	touched int
}

// New animates topo on the given engine with all nodes idle.
func New(eng *des.Engine, topo *cluster.Topology) *Cluster {
	return &Cluster{Eng: eng, Topo: topo, cpus: make([]*CPU, topo.NumNodes())}
}

// CPU returns the CPU of node id, creating it idle on first use. The
// pointer stays valid for the life of the cluster.
func (c *Cluster) CPU(id int) *CPU {
	if cpu := c.cpus[id]; cpu != nil {
		return cpu
	}
	cpu := &CPU{eng: c.Eng, node: id, cores: c.Topo.Node(id).CPUs, avail: 1, lastTouch: c.Eng.Now()}
	c.cpus[id] = cpu
	c.touched++
	return cpu
}

// Touched reports how many nodes' CPUs exist.
func (c *Cluster) Touched() int { return c.touched }

// Availability reports node id's background availability (ground truth).
func (c *Cluster) Availability(id int) float64 {
	if cpu := c.cpus[id]; cpu != nil {
		return cpu.Availability()
	}
	return 1
}

// AvailableToNewTask reports the CPU share a new task on node id would
// receive (see CPU.AvailableToNewTask).
func (c *Cluster) AvailableToNewTask(id int) float64 {
	if cpu := c.cpus[id]; cpu != nil {
		return cpu.AvailableToNewTask()
	}
	return 1
}

// SetAvailability sets node id's background availability. Must be called
// from engine context.
func (c *Cluster) SetAvailability(id int, a float64) { c.CPU(id).SetAvailability(a) }

// Crash takes node id down (see CPU.Crash). Must be called from engine
// context.
func (c *Cluster) Crash(id int) { c.CPU(id).Crash() }

// Recover brings node id back up (see CPU.Recover). Must be called from
// engine context.
func (c *Cluster) Recover(id int) { c.CPU(id).Recover() }

// Down reports whether node id is crashed.
func (c *Cluster) Down(id int) bool {
	cpu := c.cpus[id]
	return cpu != nil && cpu.Down()
}

// RandomWalkLoad drives node id's availability with a mean-reverting random
// walk sampled every interval: avail' = avail + pull·(mean−avail) + noise.
// It models the "routine operating-system processes" background of §5 when
// volatility is small, or a shared multi-user node when large. The walk is
// seeded, hence reproducible. It runs until the engine stops; call
// eng.Shutdown to reap the daemon.
func (c *Cluster) RandomWalkLoad(id int, mean, volatility float64, interval des.Time, seed int64) *des.Proc {
	rng := rand.New(rand.NewSource(seed))
	return c.Eng.Spawn("loadwalk", func(p *des.Proc) {
		avail := mean
		for {
			p.Sleep(interval)
			avail += 0.3*(mean-avail) + volatility*rng.NormFloat64()
			if avail > 1 {
				avail = 1
			}
			if avail < minAvailability {
				avail = minAvailability
			}
			c.SetAvailability(id, avail)
		}
	})
}

// Background is the background load of a fresh cluster instance: static
// per-node availability overrides, optionally overlaid with §5's "routine
// operating system processes" — a seeded walk per node in about [0.97, 1.0]
// around its base (0.985, or its override).
type Background struct {
	// Avail maps node ID -> availability, set at time zero.
	Avail map[int]float64
	// Noise adds the OS-noise walk to every node, seeded by Seed.
	Noise bool
	Seed  int64
}

// Apply schedules b on c, which must be at time zero. For each node in ID
// order it spawns the noise walk, then sets the node's availability at time
// zero. It applies nothing and returns an error if an override names a node
// outside the topology or a non-finite availability.
func (b Background) Apply(c *Cluster) error {
	n := c.Topo.NumNodes()
	for id, a := range b.Avail {
		if id < 0 || id >= n {
			return fmt.Errorf("vcluster: background load on node %d outside [0, %d)", id, n)
		}
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("vcluster: background availability %v on node %d is not finite", a, id)
		}
	}
	var rng *rand.Rand
	if b.Noise {
		rng = rand.New(rand.NewSource(b.Seed))
	}
	for id := 0; id < n; id++ {
		a, overridden := b.Avail[id]
		if b.Noise {
			if !overridden {
				a = 0.985
			}
			c.RandomWalkLoad(id, a, 0.006, 500*des.Millisecond, rng.Int63())
		} else if !overridden {
			continue
		}
		c.Eng.Schedule(0, func() { c.SetAvailability(id, a) })
	}
	return nil
}
