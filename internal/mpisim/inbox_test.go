package mpisim

import (
	"runtime"
	"testing"

	"cbes/internal/cluster"
	"cbes/internal/des"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
)

// TestPerSourceFIFOManySources has 16 senders interleave eager and
// rendezvous messages to one receiver, which drains them in an order that
// makes most sources announce themselves while it is parked on another: each
// source's messages must still come out in the order they were sent.
func TestPerSourceFIFOManySources(t *testing.T) {
	const senders, perSender = 16, 6
	size := func(src, i int) int64 {
		s := int64(src*100 + i)
		if (src+i)%2 == 0 {
			return DefaultEagerThreshold + 1 + s // rendezvous
		}
		return 1 + s // eager
	}
	vc, net := newWorldEnv()
	mapping := make([]int, senders+1)
	for i := range mapping {
		mapping[i] = i % 8
	}
	received := 0
	Run(vc, net, mapping, func(r *Rank) {
		if r.ID() != 0 {
			for i := 0; i < perSender; i++ {
				r.Send(0, size(r.ID(), i))
			}
			return
		}
		for i := 0; i < perSender; i++ {
			for k := 1; k <= senders; k++ {
				src := k
				if i%2 == 0 {
					src = senders + 1 - k // highest rank first: the last to be scheduled
				}
				if got, want := r.Recv(src), size(src, i); got != want {
					t.Errorf("message %d from rank %d has size %d, want %d", i, src, got, want)
				}
				received++
			}
		}
	}, Options{})
	if received != senders*perSender {
		t.Fatalf("received %d messages, want %d", received, senders*perSender)
	}
}

func env256(t *testing.T) (*vcluster.Cluster, *simnet.Network, []int) {
	t.Helper()
	topo, err := cluster.FromSpec("fattree:8") // 128 nodes
	if err != nil {
		t.Fatal(err)
	}
	eng := des.NewEngine()
	mapping := make([]int, 256)
	for i := range mapping {
		mapping[i] = i % topo.NumNodes()
	}
	return vcluster.New(eng, topo), simnet.New(eng, topo), mapping
}

// TestAlltoall256 completes an all-to-all in which every rank hears from
// all 255 others, the widest an inbox gets.
func TestAlltoall256(t *testing.T) {
	if testing.Short() {
		t.Skip("65 280 messages in -short mode")
	}
	vc, net, mapping := env256(t)
	res := Run(vc, net, mapping, func(r *Rank) { r.Alltoall(512) }, Options{})
	for _, p := range res.Trace.Segments[0].Procs {
		var sent int64
		for _, g := range p.Sends {
			sent += int64(g.Count)
		}
		if sent != 255 || len(p.Sends) != 255 {
			t.Fatalf("rank %d sent %d messages to %d peers, want 255 to 255", p.Rank, sent, len(p.Sends))
		}
	}
}

// TestLaunchAllocatesPerRankNotPerPair pins start-up cost: a rank's inbox
// starts empty, where a table of every possible source made Launch of 256
// ranks allocate 1.6 MB.
func TestLaunchAllocatesPerRankNotPerPair(t *testing.T) {
	vc, net, mapping := env256(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := Launch(vc, net, mapping, func(r *Rank) {}, Options{})
	runtime.ReadMemStats(&after)
	if w.Done() {
		t.Fatal("world finished before the engine ran")
	}
	vc.Eng.Shutdown()
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Fatalf("Launch of 256 ranks allocated %d bytes, want < 256 kB", got)
	} else {
		t.Logf("Launch of 256 ranks allocated %d bytes", got)
	}
}
