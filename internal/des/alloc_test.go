package des

import (
	"testing"
	"time"
)

// The scheduling hot paths must not allocate per event: Sleep/Unpark carry
// the process pointer in the event, AtCall carries a shared function plus a
// pre-boxed argument, and fired events recycle through the free list. The
// tests below run whole simulations and bound the TOTAL allocation count,
// so the fixed setup cost (simulator, process, coroutine) is
// amortized over enough events that any per-event allocation would blow
// the budget by orders of magnitude.

func TestSleepAllocsAmortized(t *testing.T) {
	const sleeps = 10000
	allocs := testing.AllocsPerRun(3, func() {
		s := New(1)
		s.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < sleeps; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		if err := s.Run(); err != nil {
			t.Error(err)
		}
	})
	// Setup costs a few dozen allocations plus the heap's growth to its
	// high-water mark; 10k sleeps at even one allocation each would be
	// 10000+.
	if allocs > 200 {
		t.Errorf("simulation with %d sleeps allocated %.0f objects, want <= 200 (per-sleep path must be allocation-free)", sleeps, allocs)
	}
}

// TestSpawnAllocsPerProcess pins what a process costs to make and run to
// its end: the Proc, 1.0 objects a process on go1.24.0. Its coroutine comes
// from the idle list (these bodies end at their first transfer, so one
// coroutine serves them all; without the list it was 13 objects inside
// iter.Pull), the body captures nothing, the name is made once (as an mpi
// rank is its own name), and the map entry, the start event and the heap
// slot are warm by the measured rounds. A process whose
// body is a closure adds that closure.
func TestSpawnAllocsPerProcess(t *testing.T) {
	const procs = 1000
	s := New(1)
	name := procName("p")
	round := func() {
		for i := 0; i < procs; i++ {
			s.SpawnFor(&name, func(p *Proc) {})
		}
		s.ran = false
		if err := s.Run(); err != nil {
			t.Error(err)
		}
	}
	if per := testing.AllocsPerRun(3, round) / procs; per > 2 {
		t.Errorf("a process costs %.1f objects to spawn and finish, want <= 2", per)
	}
}

func TestAtCallAllocsAmortized(t *testing.T) {
	const fires = 10000
	allocs := testing.AllocsPerRun(3, func() {
		s := New(1)
		n := 0
		var step func(any)
		step = func(a any) {
			n++
			if n < fires {
				s.AtCall(s.Now()+1, step, a)
			}
		}
		arg := &n // any pre-boxed pointer; boxing happens once, here
		s.AtCall(0, step, arg)
		if err := s.Run(); err != nil {
			t.Error(err)
		}
	})
	if allocs > 100 {
		t.Errorf("simulation with %d AtCall events allocated %.0f objects, want <= 100 (AtCall path must be allocation-free)", fires, allocs)
	}
}

// TestCondBroadcastWaitAllocsAmortized: a broadcast keeps the waiter
// list's storage, so the wait that follows it (mpi's per-rank arrival
// condition does this on every blocking receive) does not allocate a fresh
// one-element list.
func TestCondBroadcastWaitAllocsAmortized(t *testing.T) {
	const cycles = 10000
	allocs := testing.AllocsPerRun(3, func() {
		s := New(1)
		var c Cond
		s.Spawn("waiter", func(p *Proc) {
			for i := 0; i < cycles; i++ {
				c.Wait(p, "cycle")
			}
		})
		s.Spawn("waker", func(p *Proc) {
			for i := 0; i < cycles; i++ {
				p.Sleep(time.Microsecond)
				c.Broadcast()
			}
		})
		if err := s.Run(); err != nil {
			t.Error(err)
		}
	})
	if allocs > 200 {
		t.Errorf("simulation with %d wait/broadcast cycles allocated %.0f objects, want <= 200 (0 per cycle once warm)", cycles, allocs)
	}
}

// TestEventFreeListRecycles pins the free-list behavior directly: fired
// events land on the free list with every reference cleared, so recycling
// cannot retain dead processes or closures.
func TestEventFreeListRecycles(t *testing.T) {
	s := New(1)
	s.Spawn("p", func(p *Proc) { p.Sleep(10 * time.Nanosecond) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.free == nil {
		t.Fatal("no events on the free list after a run")
	}
	got := s.alloc(7)
	if got.proc != nil || got.fn != nil || got.arg != nil || got.fire != nil {
		t.Errorf("recycled event carries stale references: %+v", got)
	}
}
