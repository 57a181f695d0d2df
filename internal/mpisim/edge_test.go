package mpisim

import (
	"math/rand"
	"reflect"
	"testing"

	"cbes/internal/des"
)

// expectPanic runs fn and fails unless it panics.
func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s should panic", what)
		}
	}()
	fn()
}

func TestSendToSelfPanics(t *testing.T) {
	// Misuse panics fire inside the rank's own goroutine, so they must be
	// recovered there.
	vc, net := newWorldEnv()
	panicked := false
	Run(vc, net, []int{0, 1}, func(r *Rank) {
		if r.ID() == 0 {
			func() {
				defer func() { panicked = recover() != nil }()
				r.Send(0, 100)
			}()
		}
	}, Options{})
	if !panicked {
		t.Fatal("send to self should panic")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	vc, net := newWorldEnv()
	panicked := false
	Run(vc, net, []int{0, 1}, func(r *Rank) {
		if r.ID() == 0 {
			func() {
				defer func() { panicked = recover() != nil }()
				r.Send(1, -5)
			}()
			r.Send(1, 64) // unblock the peer
		} else {
			r.Recv(0)
		}
	}, Options{})
	if !panicked {
		t.Fatal("negative size should panic")
	}
}

func TestInvalidMappingPanics(t *testing.T) {
	vc, net := newWorldEnv()
	expectPanic(t, "invalid node", func() {
		Launch(vc, net, []int{0, 99}, func(r *Rank) {}, Options{})
	})
	expectPanic(t, "empty mapping", func() {
		Launch(vc, net, nil, func(r *Rank) {}, Options{})
	})
}

func TestDeadlockDetection(t *testing.T) {
	vc, net := newWorldEnv()
	w := Launch(vc, net, []int{0, 1}, func(r *Rank) {
		r.Recv(1 - r.ID()) // both wait forever: nobody sends
	}, Options{})
	expectPanic(t, "deadlocked world", func() { w.Wait() })
}

func TestZeroByteMessage(t *testing.T) {
	vc, net := newWorldEnv()
	res := Run(vc, net, []int{0, 1}, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0)
		} else {
			if got := r.Recv(0); got != 0 {
				t.Errorf("recv size = %d", got)
			}
		}
	}, Options{})
	if res.Elapsed <= 0 {
		t.Fatal("zero-byte message should still take overhead time")
	}
}

func TestSingleRankCollectivesNoOp(t *testing.T) {
	vc, net := newWorldEnv()
	res := Run(vc, net, []int{0}, func(r *Rank) {
		r.Barrier()
		r.Bcast(0, 1024)
		r.Reduce(0, 1024, 0.001)
		r.Allreduce(1024, 0.001)
		r.Alltoall(1024)
	}, Options{})
	// No communication: only trivial time passes.
	if res.Elapsed > des.Millisecond {
		t.Fatalf("single-rank collectives took %v", res.Elapsed)
	}
}

func TestRankAccessors(t *testing.T) {
	vc, net := newWorldEnv()
	Run(vc, net, []int{3, 4}, func(r *Rank) {
		if r.Size() != 2 {
			t.Errorf("Size = %d", r.Size())
		}
		want := 3
		if r.ID() == 1 {
			want = 4
		}
		if r.NodeID() != want {
			t.Errorf("NodeID = %d, want %d", r.NodeID(), want)
		}
		if r.Arch() == "" {
			t.Error("empty arch")
		}
		if r.Now() < 0 {
			t.Error("negative time")
		}
	}, Options{})
}

func TestWorldResultAfterWaitIn(t *testing.T) {
	vc, net := newWorldEnv()
	w := Launch(vc, net, []int{0}, func(r *Rank) { r.Compute(0.5) }, Options{})
	var got *Result
	vc.Eng.Spawn("watcher", func(p *des.Proc) {
		w.WaitIn(p)
		got = w.Result()
	})
	vc.Eng.Run()
	if got == nil || got.Elapsed <= 0 {
		t.Fatalf("result = %+v", got)
	}
	// Result of an unfinished world panics.
	w2 := Launch(vc, net, []int{0}, func(r *Rank) { r.Compute(0.1) }, Options{})
	expectPanic(t, "unfinished Result", func() { w2.Result() })
	w2.Wait()
}

// Wait and WaitIn followed by Result hand back the same run: the same
// trace, start and end for one seeded world.
func TestWaitMatchesWaitInResult(t *testing.T) {
	run := func(viaWaitIn bool) *Result {
		vc, net := newWorldEnv()
		vc.Eng.ScheduleAt(50*des.Millisecond, func() { vc.SetAvailability(1, 0.6) })
		rng := rand.New(rand.NewSource(11))
		work := make([]float64, 8)
		for i := range work {
			work[i] = 0.01 + 0.05*rng.Float64()
		}
		body := func(r *Rank) {
			for i, w := range work {
				r.Compute(w)
				r.Alltoall(int64(512 << (i % 4)))
			}
			r.Allreduce(64, 0.001)
		}
		w := Launch(vc, net, []int{0, 1, 4, 5}, body, Options{AppName: "seeded", RecordIntervals: true})
		if !viaWaitIn {
			return w.Wait()
		}
		var got *Result
		vc.Eng.Spawn("watcher", func(p *des.Proc) {
			w.WaitIn(p)
			got = w.Result()
		})
		vc.Eng.Run()
		return got
	}
	a, b := run(false), run(true)
	if a.Start != b.Start || a.End != b.End || a.Elapsed != b.Elapsed {
		t.Fatalf("Wait: start %v end %v; WaitIn+Result: start %v end %v", a.Start, a.End, b.Start, b.End)
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatal("Wait and WaitIn+Result gave different traces")
	}
}
