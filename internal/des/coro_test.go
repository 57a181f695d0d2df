package des

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
)

func coroutinesCreated() int {
	idle.Lock()
	defer idle.Unlock()
	return idle.created
}

func isIdle(c *coro) bool {
	idle.Lock()
	defer idle.Unlock()
	for _, x := range idle.coros {
		if x == c {
			return true
		}
	}
	return false
}

// ringWorld runs n processes on a fresh engine: each passes a token around a
// ring of Signals, sleeping between hops, and logs what it saw. It returns
// a hash of the log, which depends on every switch happening in order.
func ringWorld(n, rounds int) uint64 {
	e := NewEngine()
	h := fnv.New64a()
	sigs := make([]Signal, n)
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("r%d", i), func(p *Proc) {
			for k := 0; k < rounds; k++ {
				if i > 0 || k > 0 {
					sigs[i].Wait(p)
				}
				fmt.Fprintf(h, "%d %d %d\n", p.Now(), i, k)
				p.Sleep(Time(1 + (i*7+k)%5))
				if !sigs[(i+1)%n].Wake() && (i+1)%n != 0 {
					panic(fmt.Sprintf("r%d round %d: successor not waiting", i, k))
				}
			}
		})
	}
	e.Run()
	if e.Live() != 0 {
		panic(fmt.Sprintf("%d processes left", e.Live()))
	}
	return h.Sum64()
}

// TestCoroutinesReusedAcrossWorlds: after the first of 50 worlds of 256
// processes, each on a fresh engine, no world makes a coroutine: every
// Spawn is served from the ones the world before returned.
func TestCoroutinesReusedAcrossWorlds(t *testing.T) {
	want := ringWorld(256, 3)
	after := coroutinesCreated()
	for w := 1; w < 50; w++ {
		if got := ringWorld(256, 3); got != want {
			t.Fatalf("world %d hashed %x, the first %x", w, got, want)
		}
	}
	if made := coroutinesCreated() - after; made != 0 {
		t.Fatalf("49 worlds after the first made %d coroutines, want 0", made)
	}
}

// TestKilledOrPanickedCoroutineNotReused: the coroutine of a killed body and
// that of a panicking body end with them and are never handed out again,
// while a returned body's coroutine is; a done process whose coroutine
// went on to run another stays inert.
func TestKilledOrPanickedCoroutineNotReused(t *testing.T) {
	e := NewEngine()
	var victimCo, badCo, doneCo *coro
	e.Spawn("victim", func(p *Proc) {
		victimCo = p.co
		p.Park()
	})
	e.Spawn("bad", func(p *Proc) {
		badCo = p.co
		panic("boom")
	})
	done := e.Spawn("done", func(p *Proc) { doneCo = p.co })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("Run panicked with %v, want boom", r)
			}
		}()
		e.Run()
	}()
	e.Run()
	e.Shutdown()
	if isIdle(victimCo) || isIdle(badCo) {
		t.Fatalf("idle list holds the killed (%v) or the panicked (%v) coroutine", isIdle(victimCo), isIdle(badCo))
	}
	if !isIdle(doneCo) {
		t.Fatal("a returned body's coroutine is not idle")
	}

	// The next start takes the most recently idled coroutine: doneCo.
	e = NewEngine()
	var next *Proc
	woke := false
	next = e.Spawn("next", func(p *Proc) {
		if p.co != doneCo {
			t.Errorf("next runs on %p, want the returned body's %p", p.co, doneCo)
		}
		p.Park()
		woke = true
	})
	e.Run()
	done.Unpark()
	done.Kill()
	if next.Done() || woke {
		t.Fatal("Unpark or Kill of a done process reached the process now on its coroutine")
	}
	next.Unpark()
	if !woke || !next.Done() {
		t.Fatal("the process on the reused coroutine did not resume")
	}

	seen := map[*coro]bool{}
	e = NewEngine()
	for i := 0; i < 2*maxIdleCoros; i++ {
		e.Spawn("p", func(p *Proc) {
			seen[p.co] = true
			p.Sleep(Second)
		})
	}
	e.Run()
	if seen[victimCo] || seen[badCo] {
		t.Fatal("a killed or panicked body's coroutine was handed out again")
	}
}

// TestCoroutineListSharedAcrossEngines: four goroutines each drive their own
// engines through worlds, all taking coroutines from and returning them to
// the one list. Every world must hash as it does alone. Run under -race: a
// coroutine put on the list before it has switched out could be resumed by
// another goroutine while still running.
func TestCoroutineListSharedAcrossEngines(t *testing.T) {
	const goroutines, worlds = 4, 25
	want := ringWorld(48, 4)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for w := 0; w < worlds; w++ {
				if got := ringWorld(48, 4); got != want {
					errs <- fmt.Errorf("goroutine %d world %d hashed %x, want %x", g, w, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
