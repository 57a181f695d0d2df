package mpisim

import (
	"math"
	"testing"

	"cbes/internal/cluster"
	"cbes/internal/des"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
)

func newWorldEnv() (*vcluster.Cluster, *simnet.Network) {
	eng := des.NewEngine()
	topo := cluster.NewTestTopology()
	return vcluster.New(eng, topo), simnet.New(eng, topo)
}

func TestComputeOnly(t *testing.T) {
	vc, net := newWorldEnv()
	res := Run(vc, net, []int{0}, func(r *Rank) {
		r.Compute(3.0)
	}, Options{AppName: "solo"})
	if got := res.Elapsed.Seconds(); math.Abs(got-3.0) > 1e-6 {
		t.Fatalf("elapsed = %v, want 3s", got)
	}
	p := res.Trace.Segments[0].Procs[0]
	if got := p.Run.Seconds(); math.Abs(got-3.0) > 1e-6 {
		t.Fatalf("X = %v, want 3s", got)
	}
	if p.Overhead != 0 || p.Blocked != 0 {
		t.Fatalf("unexpected O=%v B=%v", p.Overhead, p.Blocked)
	}
}

func TestComputeSlowerOnIntel(t *testing.T) {
	vc, net := newWorldEnv()
	// Node 4 is Intel with speed 0.78: 1 ref-second takes 1/0.78 s.
	res := Run(vc, net, []int{4}, func(r *Rank) { r.Compute(1.0) }, Options{})
	want := 1.0 / 0.78
	if got := res.Elapsed.Seconds(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
}

func TestArchEfficiencyMultiplier(t *testing.T) {
	vc, net := newWorldEnv()
	opts := Options{ArchEff: map[cluster.Arch]float64{cluster.ArchAlpha: 0.5}}
	res := Run(vc, net, []int{0}, func(r *Rank) { r.Compute(1.0) }, opts)
	if got := res.Elapsed.Seconds(); math.Abs(got-2.0) > 1e-6 {
		t.Fatalf("elapsed = %v, want 2s with 0.5 efficiency", got)
	}
}

func TestEagerSendRecv(t *testing.T) {
	vc, net := newWorldEnv()
	var recvd int64
	res := Run(vc, net, []int{0, 1}, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1024)
		} else {
			recvd = r.Recv(0)
		}
	}, Options{})
	if recvd != 1024 {
		t.Fatalf("received %d bytes, want 1024", recvd)
	}
	// Receiver blocked some of the time, then paid overhead.
	p1 := res.Trace.Segments[0].Procs[1]
	if p1.Blocked <= 0 {
		t.Fatal("receiver never blocked")
	}
	if p1.Overhead <= 0 {
		t.Fatal("receiver paid no overhead")
	}
	// Sender's eager send does not block.
	p0 := res.Trace.Segments[0].Procs[0]
	if p0.Blocked != 0 {
		t.Fatalf("eager sender blocked %v", p0.Blocked)
	}
}

func TestRendezvousBlocksSender(t *testing.T) {
	vc, net := newWorldEnv()
	size := int64(1 << 20) // over the eager threshold
	res := Run(vc, net, []int{0, 1}, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, size)
		} else {
			r.Compute(0.5) // receiver is late: sender must wait
			r.Recv(0)
		}
	}, Options{})
	p0 := res.Trace.Segments[0].Procs[0]
	if p0.Blocked.Seconds() < 0.4 {
		t.Fatalf("rendezvous sender blocked only %v, want ~0.5s+transfer", p0.Blocked)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	vc, net := newWorldEnv()
	var sizes []int64
	Run(vc, net, []int{0, 1}, func(r *Rank) {
		if r.ID() == 0 {
			for i := 1; i <= 5; i++ {
				r.Send(1, int64(i*100))
			}
		} else {
			for i := 0; i < 5; i++ {
				sizes = append(sizes, r.Recv(0))
			}
		}
	}, Options{})
	for i, s := range sizes {
		if s != int64((i+1)*100) {
			t.Fatalf("out-of-order receive: %v", sizes)
		}
	}
}

func TestRecvBeforeSend(t *testing.T) {
	vc, net := newWorldEnv()
	res := Run(vc, net, []int{0, 1}, func(r *Rank) {
		if r.ID() == 0 {
			r.Recv(1)
		} else {
			r.Compute(1.0)
			r.Send(0, 4096)
		}
	}, Options{})
	p0 := res.Trace.Segments[0].Procs[0]
	if p0.Blocked.Seconds() < 0.9 {
		t.Fatalf("early receiver blocked only %v", p0.Blocked)
	}
}

func TestPingPongLatencySameVsCrossSwitch(t *testing.T) {
	elapsed := func(mapping []int) float64 {
		vc, net := newWorldEnv()
		res := Run(vc, net, mapping, func(r *Rank) {
			for i := 0; i < 100; i++ {
				if r.ID() == 0 {
					r.Send(1, 1024)
					r.Recv(1)
				} else {
					r.Recv(0)
					r.Send(0, 1024)
				}
			}
		}, Options{})
		return res.Elapsed.Seconds()
	}
	same := elapsed([]int{0, 1})  // both on switch A
	cross := elapsed([]int{0, 4}) // across the uplink
	if cross <= same {
		t.Fatalf("cross-switch ping-pong (%v) not slower than same-switch (%v)", cross, same)
	}
}

func TestLoadInflatesLatency(t *testing.T) {
	run := func(avail float64) float64 {
		vc, net := newWorldEnv()
		vc.Eng.Schedule(0, func() { vc.SetAvailability(1, avail) })
		res := Run(vc, net, []int{0, 1}, func(r *Rank) {
			for i := 0; i < 50; i++ {
				if r.ID() == 0 {
					r.Send(1, 1024)
					r.Recv(1)
				} else {
					r.Recv(0)
					r.Send(0, 1024)
				}
			}
		}, Options{})
		return res.Elapsed.Seconds()
	}
	idle, loaded := run(1.0), run(0.5)
	if loaded <= idle {
		t.Fatalf("CPU load on peer did not inflate latency: idle %v, loaded %v", idle, loaded)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	vc, net := newWorldEnv()
	var after []float64
	Run(vc, net, []int{0, 1, 2, 3}, func(r *Rank) {
		r.Compute(float64(r.ID()) * 0.3) // staggered arrivals
		r.Barrier()
		after = append(after, r.Now().Seconds())
	}, Options{})
	// Everyone leaves the barrier at (nearly) the same time, after the
	// slowest arrival (0.9s).
	for _, a := range after {
		if a < 0.9 {
			t.Fatalf("rank left barrier at %v, before slowest arrival", a)
		}
	}
	min, max := after[0], after[0]
	for _, a := range after {
		min = math.Min(min, a)
		max = math.Max(max, a)
	}
	if max-min > 0.01 {
		t.Fatalf("barrier exit spread %v too large", max-min)
	}
}

func TestBcastReachesAll(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		vc, net := newWorldEnv()
		mapping := make([]int, n)
		for i := range mapping {
			mapping[i] = i % 8
		}
		counts := make([]int, n)
		Run(vc, net, mapping, func(r *Rank) {
			r.Bcast(0, 10000)
			counts[r.ID()]++
		}, Options{})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: rank %d finished %d times", n, i, c)
			}
		}
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	vc, net := newWorldEnv()
	Run(vc, net, []int{0, 1, 2, 3, 4}, func(r *Rank) {
		r.Bcast(3, 5000)
	}, Options{})
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		vc, net := newWorldEnv()
		mapping := make([]int, n)
		for i := range mapping {
			mapping[i] = i % 8
		}
		Run(vc, net, mapping, func(r *Rank) {
			r.Reduce(0, 8192, 0.001)
			r.Allreduce(8192, 0.001)
		}, Options{})
	}
}

func TestAlltoallReachesEveryPeer(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		vc, net := newWorldEnv()
		mapping := make([]int, n)
		for i := range mapping {
			mapping[i] = i % 8
		}
		res := Run(vc, net, mapping, func(r *Rank) {
			r.Alltoall(4096)
		}, Options{})
		// Every ordered pair exchanged >= 1 message of 4096.
		for _, p := range res.Trace.Segments[0].Procs {
			peers := map[int]bool{}
			for _, g := range p.Sends {
				if g.Size == 4096 {
					peers[g.Peer] = true
				}
			}
			if len(peers) != n-1 {
				t.Fatalf("n=%d: rank %d alltoall sent 4096B to %d peers, want %d",
					n, p.Rank, len(peers), n-1)
			}
		}
	}
}

func TestTournamentPairing(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9, 16} {
		met := map[[2]int]int{}
		for round := 0; round < tournamentRounds(n); round++ {
			for id := 0; id < n; id++ {
				peer := tournamentPeer(n, round, id)
				if peer == -1 {
					continue
				}
				if peer == id {
					t.Fatalf("n=%d round=%d: %d paired with itself", n, round, id)
				}
				if back := tournamentPeer(n, round, peer); back != id {
					t.Fatalf("n=%d round=%d: pairing not symmetric: %d->%d->%d", n, round, id, peer, back)
				}
				a, b := id, peer
				if a > b {
					a, b = b, a
				}
				met[[2]int{a, b}]++
			}
		}
		want := n * (n - 1) / 2
		if len(met) != want {
			t.Fatalf("n=%d: %d distinct pairs met, want %d", n, len(met), want)
		}
		for pair, c := range met {
			if c != 2 { // counted once from each side
				t.Fatalf("n=%d: pair %v met %d times (counted twice per meeting)", n, pair, c)
			}
		}
	}
}

func TestPhaseSegments(t *testing.T) {
	vc, net := newWorldEnv()
	res := Run(vc, net, []int{0, 1}, func(r *Rank) {
		r.Compute(0.1)
		r.Phase("solve")
		r.Compute(0.2)
		if r.ID() == 0 {
			r.Send(1, 512)
		} else {
			r.Recv(0)
		}
	}, Options{})
	if len(res.Trace.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(res.Trace.Segments))
	}
	if res.Trace.Segments[1].Name != "solve" {
		t.Fatalf("segment name = %q", res.Trace.Segments[1].Name)
	}
	// The 512-byte payload must land in the solve segment (alongside any
	// barrier tokens from the phase marker itself).
	found := false
	for _, g := range res.Trace.Segments[1].Procs[0].Sends {
		if g.Size == 512 && g.Peer == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("send not attributed to the solve segment")
	}
	for _, g := range res.Trace.Segments[0].Procs[0].Sends {
		if g.Size == 512 {
			t.Fatal("payload leaked into the pre-phase segment")
		}
	}
}

func TestDualCPUCoLocation(t *testing.T) {
	// Two ranks on one dual-CPU Intel node run at full per-core speed;
	// on a single-CPU Alpha they timeshare.
	run := func(node int) float64 {
		vc, net := newWorldEnv()
		res := Run(vc, net, []int{node, node}, func(r *Rank) { r.Compute(1.0) }, Options{})
		return res.Elapsed.Seconds()
	}
	intel := run(4) // dual CPU, speed 0.78 -> ~1.28s
	alpha := run(0) // single CPU, shared -> ~2s
	if !(intel < alpha) {
		t.Fatalf("dual-CPU co-location (%v) should beat single-CPU (%v)", intel, alpha)
	}
	if math.Abs(alpha-2.0) > 1e-3 {
		t.Fatalf("single-CPU co-located elapsed = %v, want ~2s", alpha)
	}
}

func TestTraceAccountingConservation(t *testing.T) {
	vc, net := newWorldEnv()
	res := Run(vc, net, []int{0, 1, 4, 5}, func(r *Rank) {
		r.Compute(0.05)
		r.Alltoall(50000)
		r.Barrier()
		r.Compute(0.05)
	}, Options{})
	for _, p := range res.Trace.Segments[0].Procs {
		total := p.Busy()
		if d := (total - res.Elapsed).Seconds(); math.Abs(d) > 1e-6 {
			t.Fatalf("rank %d accounting %v != elapsed %v", p.Rank, total, res.Elapsed)
		}
	}
}

func TestWorldReuseEngine(t *testing.T) {
	// Two sequential app runs on the same virtual cluster must work and not
	// interfere.
	vc, net := newWorldEnv()
	r1 := Run(vc, net, []int{0, 1}, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 128)
		} else {
			r.Recv(0)
		}
	}, Options{AppName: "first"})
	r2 := Run(vc, net, []int{2, 3}, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 128)
		} else {
			r.Recv(0)
		}
	}, Options{AppName: "second"})
	if r2.Start < r1.End {
		t.Fatalf("second run started at %v before first ended at %v", r2.Start, r1.End)
	}
	if r1.Trace.App != "first" || r2.Trace.App != "second" {
		t.Fatal("trace labels mixed up")
	}
}

func TestConcurrentWorldsContend(t *testing.T) {
	// Two apps running simultaneously on the same nodes slow each other
	// down versus running alone.
	solo := func() float64 {
		vc, net := newWorldEnv()
		res := Run(vc, net, []int{0, 1}, pingPong50k, Options{})
		return res.Elapsed.Seconds()
	}()
	vc, net := newWorldEnv()
	w1 := Launch(vc, net, []int{0, 1}, pingPong50k, Options{AppName: "w1"})
	w2 := Launch(vc, net, []int{0, 1}, pingPong50k, Options{AppName: "w2"})
	res1 := w1.Wait()
	res2 := w2.Wait()
	if res1.Elapsed.Seconds() <= solo || res2.Elapsed.Seconds() <= solo {
		t.Fatalf("concurrent worlds not contending: solo %v, w1 %v, w2 %v",
			solo, res1.Elapsed.Seconds(), res2.Elapsed.Seconds())
	}
}

func pingPong50k(r *Rank) {
	for i := 0; i < 20; i++ {
		r.Compute(0.01)
		if r.ID() == 0 {
			r.Send(1, 50000)
			r.Recv(1)
		} else {
			r.Recv(0)
			r.Send(0, 50000)
		}
	}
}

func BenchmarkPingPong(b *testing.B) {
	vc, net := newWorldEnv()
	for i := 0; i < b.N; i++ {
		Run(vc, net, []int{0, 4}, func(r *Rank) {
			for k := 0; k < 10; k++ {
				if r.ID() == 0 {
					r.Send(1, 1024)
					r.Recv(1)
				} else {
					r.Recv(0)
					r.Send(0, 1024)
				}
			}
		}, Options{})
	}
}

func BenchmarkAlltoall8(b *testing.B) {
	vc, net := newWorldEnv()
	mapping := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for i := 0; i < b.N; i++ {
		Run(vc, net, mapping, func(r *Rank) { r.Alltoall(8192) }, Options{})
	}
}
