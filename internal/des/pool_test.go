package des

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// The tests below pin the coroutine idle list: a process's coroutine
// outlives it and serves the next process of any simulation on any
// goroutine, the list never holds more than idleCap, and a run that ends
// with processes parked leaves none of their coroutines behind.

// idleNow returns the coroutines on the idle list.
func idleNow() []*coro {
	idle.Lock()
	defer idle.Unlock()
	return append([]*coro(nil), idle.coros...)
}

// settleGoroutines waits, yielding, for the count of goroutines that are
// not idle coroutines to fall to limit — a goroutine that has signalled
// its end may still be exiting — and returns the count it ends at.
func settleGoroutines(limit int) int {
	busy := func() int { return runtime.NumGoroutine() - len(idleNow()) }
	n := busy()
	for i := 0; i < 10000 && n > limit; i++ {
		runtime.Gosched()
		n = busy()
	}
	return n
}

// TestCoroutinesReusedAcrossRuns: 50 simulations of 64 processes that all
// hold a coroutine at once, one after another, each after the first on a
// goroutine of its own. Every later run runs on the coroutines the first
// left idle, and the goroutine count stays where the first run left it.
func TestCoroutinesReusedAcrossRuns(t *testing.T) {
	const runs, procs = 50, 64
	simulate := func() {
		s := New(1)
		for i := 0; i < procs; i++ {
			s.Spawn("p", func(p *Proc) { p.Sleep(time.Duration(i+1) * time.Microsecond) })
		}
		if err := s.Run(); err != nil {
			t.Error(err)
		}
	}
	simulate()
	first := map[*coro]bool{}
	for _, c := range idleNow() {
		first[c] = true
	}
	if len(first) < procs {
		t.Fatalf("%d coroutines idle after a run of %d processes, want >= %d", len(first), procs, procs)
	}
	after := runtime.NumGoroutine()
	for i := 1; i < runs; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			simulate()
		}()
		<-done
		if n := settleGoroutines(after - len(first)); n+len(first) > after {
			t.Fatalf("run %d: %d goroutines, %d after the first run", i, n+len(first), after)
		}
		for _, c := range idleNow() {
			if !first[c] {
				t.Fatalf("run %d made a coroutine though %d were idle", i, len(first))
			}
		}
	}
}

// TestIdleCoroutinesCapped: a run of idleCap+64 processes that all hold a
// coroutine at once leaves idleCap of them idle and stops the rest.
func TestIdleCoroutinesCapped(t *testing.T) {
	const procs = idleCap + 64
	busy := settleGoroutines(runtime.NumGoroutine())
	s := New(1)
	for i := 0; i < procs; i++ {
		s.Spawn("p", func(p *Proc) { p.Sleep(time.Microsecond) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(idleNow()); n != idleCap {
		t.Errorf("%d coroutines idle after %d processes, want the cap %d", n, procs, idleCap)
	}
	if n := settleGoroutines(busy); n > busy {
		t.Errorf("%d goroutines besides the idle coroutines after the run, %d before: the coroutines above the cap were not stopped", n, busy)
	}
}

// TestDeadlockedRunLeavesNoCoroutine: runs that deadlock, and runs that
// fail with processes parked, reap what is parked — 300 processes each
// way, more than the idle list holds — so they leave no goroutine besides
// the idle coroutines, and the goroutine count grows by no more than the
// idle cap.
func TestDeadlockedRunLeavesNoCoroutine(t *testing.T) {
	const runs, parked = 100, 3
	before := runtime.NumGoroutine()
	busy := settleGoroutines(before)
	check := func(what string) {
		t.Helper()
		if n := settleGoroutines(busy); n > busy {
			t.Fatalf("%d goroutines besides the idle coroutines after %d %s runs, %d before", n, runs, what, busy)
		}
		if n := runtime.NumGoroutine(); n > before+idleCap {
			t.Fatalf("%d goroutines after %d %s runs, %d before", n, runs, what, before)
		}
	}
	for i := 0; i < runs; i++ {
		s := New(1)
		var c Cond
		for j := 0; j < parked; j++ {
			s.Spawn("stuck", func(p *Proc) { c.Wait(p, "never-signalled") })
		}
		if _, ok := s.Run().(*DeadlockError); !ok {
			t.Fatal("the run did not deadlock")
		}
	}
	check("deadlocked")
	for i := 0; i < runs; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("the failing run did not panic")
				}
			}()
			s := New(1)
			for j := 0; j < parked; j++ {
				s.Spawn("bystander", func(p *Proc) { p.park("elsewhere", nil) })
			}
			s.Spawn("bomb", func(p *Proc) {
				p.Sleep(time.Millisecond)
				panic("boom")
			})
			_ = s.Run()
		}()
	}
	check("failed")
}

// TestDeadlockedRunReapsInSpawnOrder: the processes a deadlocked run
// reaps run their deferred functions in spawn order, whatever order they
// parked in.
func TestDeadlockedRunReapsInSpawnOrder(t *testing.T) {
	const procs = 16
	for run := 0; run < 5; run++ {
		s := New(1)
		var c Cond
		var order []int
		for i := 0; i < procs; i++ {
			s.Spawn("stuck", func(p *Proc) {
				defer func() { order = append(order, i) }()
				p.Sleep(time.Duration(procs-i) * time.Millisecond)
				c.Wait(p, "never-signalled")
			})
		}
		if _, ok := s.Run().(*DeadlockError); !ok {
			t.Fatal("the run did not deadlock")
		}
		if len(order) != procs || !slices.IsSorted(order) {
			t.Fatalf("run %d reaped in order %v, want spawn order 0..%d", run, order, procs-1)
		}
	}
}
