// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel drives a set of processes (Proc) in virtual time. Each process
// is a coroutine (iter.Pull) of the goroutine that called Run, so exactly
// one executes at a time: control is a baton, handed over by coroutine
// switches that never enter the Go scheduler, and there is no scheduler
// goroutine — a process that parks runs the event loop itself (see drive).
// Events are popped in (time, sequence) order whoever pops them, so a
// simulation is fully deterministic: given the same seed and the same
// program, every run produces the same event ordering and the same virtual
// timestamps.
//
// A process body that panics fails the simulation (Run re-raises it); one
// that calls runtime.Goexit (t.FailNow) ends the goroutine that called Run,
// as if Run itself had. Processes still parked when Run returns are never
// resumed, and their deferred functions never run.
//
// The package provides the primitives the MPI runtime model is built on:
//
//   - Simulator: the event queue and virtual clock.
//   - Proc: a coroutine-style simulated process (Sleep, Park, Now).
//   - Cond: a condition variable in virtual time.
//   - Queue: a FIFO server used for busy-until bandwidth accounting
//     (NIC ports, filesystem service, ...).
//
// Virtual time is measured in integer nanoseconds (Time). Durations use
// time.Duration so call sites read naturally.
package des

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Seconds converts a virtual time to seconds as a float64.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration converts a virtual time span to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// DurationToTime converts a duration into the Time scale.
func DurationToTime(d time.Duration) Time { return Time(d.Nanoseconds()) }

// SecondsToDuration converts a floating-point number of seconds into a
// duration, saturating instead of overflowing for absurdly large values.
func SecondsToDuration(s float64) time.Duration {
	const maxSec = float64(1<<62) / 1e9
	if s >= maxSec {
		return time.Duration(1 << 62)
	}
	if s <= 0 {
		return 0
	}
	return time.Duration(s * 1e9)
}

// event is a scheduled occurrence. Exactly one of proc, fn, or fire is set:
// proc transfers control to a parked process (the overwhelmingly common
// case — Sleep, Unpark, Spawn), fn runs a caller-supplied function with a
// pre-boxed argument (AtCall, used by message delivery), and fire runs an
// arbitrary closure (After/At). The specializations exist so the hot
// scheduling paths allocate neither a closure nor, thanks to the
// simulator's free list, the event itself. Callbacks run inside the event
// loop, on whichever stack holds the baton — Run's goroutine or a parked
// process's coroutine: they have no identity of their own, must keep no
// goroutine-local state, and must not block.
type event struct {
	at   Time
	seq  uint64
	proc *Proc
	fn   func(any)
	arg  any
	fire func()
	next *event // free-list link while recycled
}

// less orders events by (time, sequence), so simultaneous events fire in
// schedule order.
func (e *event) less(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a 4-ary min-heap of events. A wider node shrinks the tree:
// compared with the binary container/heap it halves the sift-down depth and
// keeps siblings on one cache line, and the hand-rolled methods avoid
// container/heap's interface dispatch on every comparison. pop nils the
// vacated tail slot so a fired event is not retained by the backing array.
type eventHeap []*event

func (h *eventHeap) push(ev *event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q[i].less(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	i := 0
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if q[j].less(q[m]) {
				m = j
			}
		}
		if !q[m].less(q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
}

// Simulator owns the virtual clock and the event queue. Create one with New,
// spawn processes with Spawn, then call Run.
type Simulator struct {
	now    Time
	queue  eventHeap
	seq    uint64
	rng    *rand.Rand
	procs  map[*Proc]struct{}
	live   int
	ran    bool
	halted bool
	// pending is the process Run is to resume next, left by an event loop
	// that yields (see drive); failure is the panic Run re-raises.
	pending *Proc
	failure any
	// free is the event free list: fired events are recycled here instead
	// of being left to the garbage collector, so steady-state scheduling
	// (Sleep, Unpark, message delivery) allocates nothing.
	free *event
}

// New creates a simulator whose internal randomness (used by Rand) is seeded
// with seed. Two simulators with equal seeds and equal programs produce
// identical runs.
func New(seed int64) *Simulator {
	return &Simulator{
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source. It must only be
// used from process context or event callbacks (never concurrently).
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Halt stops the simulation: Run returns once the currently executing
// process parks. Remaining events are discarded.
func (s *Simulator) Halt() { s.halted = true }

// alloc takes an event from the free list (or the allocator) and stamps
// its (time, sequence) key, clamping past times to now.
func (s *Simulator) alloc(at Time) *event {
	ev := s.free
	if ev != nil {
		s.free = ev.next
		ev.next = nil
	} else {
		ev = &event{}
	}
	if at < s.now {
		at = s.now
	}
	s.seq++
	ev.at, ev.seq = at, s.seq
	return ev
}

// recycle returns a fired event to the free list.
func (s *Simulator) recycle(ev *event) {
	ev.proc, ev.fn, ev.arg, ev.fire = nil, nil, nil, nil
	ev.next = s.free
	s.free = ev
}

// schedule registers fn to run at time at. If at is before the current time
// it is clamped to now.
func (s *Simulator) schedule(at Time, fn func()) {
	ev := s.alloc(at)
	ev.fire = fn
	s.queue.push(ev)
}

// scheduleProc registers a control transfer to p at time at. Unlike
// schedule it captures no closure: the event carries the process pointer
// directly, so the Sleep/Unpark hot path is allocation-free.
func (s *Simulator) scheduleProc(at Time, p *Proc) {
	ev := s.alloc(at)
	ev.proc = p
	s.queue.push(ev)
}

// After schedules fn to run d after the current virtual time. fn runs in
// scheduler context — inside the event loop, on whichever stack holds the
// baton (see event): it may wake processes but must not itself block.
func (s *Simulator) After(d time.Duration, fn func()) {
	s.schedule(s.now+DurationToTime(d), fn)
}

// At schedules fn to run at absolute virtual time at.
func (s *Simulator) At(at Time, fn func()) { s.schedule(at, fn) }

// AtCall schedules fn(arg) at absolute virtual time at. It exists for hot
// callers (message delivery) that would otherwise allocate a fresh closure
// per call: a shared top-level fn plus an already-heap-allocated arg
// schedules with zero allocations once the free list is warm.
func (s *Simulator) AtCall(at Time, fn func(any), arg any) {
	ev := s.alloc(at)
	ev.fn, ev.arg = fn, arg
	s.queue.push(ev)
}

// Proc is a simulated process. All its methods must be called from the
// process's own coroutine (inside the function passed to Spawn), except
// Kill, which may be called from scheduler context or another process.
type Proc struct {
	sim  *Simulator
	name string
	// next transfers control into the process's coroutine (only Run's
	// goroutine calls it); yield transfers it back from park.
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	dead   bool
	killed bool
	// blockedOn is a human-readable description of the current blocking
	// call, reported when the simulation deadlocks; blockedFor, when set,
	// renders it on demand instead (ParkFor).
	blockedOn  string
	blockedFor fmt.Stringer
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Dead reports whether the process has terminated (returned, panicked, or
// been killed).
func (p *Proc) Dead() bool { return p.dead }

// Killed reports whether Kill has been requested on the process (it may
// not have unwound yet).
func (p *Proc) Killed() bool { return p.killed }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Simulator { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Spawn creates a process executing fn and schedules its start at the
// current virtual time. It may be called before Run, from a running
// process or from a callback. Nothing of the coroutine runs before the
// first transfer; a finished body returns from it, and so into Run.
func (s *Simulator) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name}
	s.procs[p] = struct{}{}
	s.live++
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run(fn)
	})
	s.scheduleProc(s.now, p)
	return p
}

// run executes the process body and marks the process dead however the
// body ends. A kill unwinds silently; any other panic becomes the
// simulation's failure, which Run re-raises.
func (p *Proc) run(fn func(p *Proc)) {
	s := p.sim
	defer func() {
		p.dead = true
		s.live--
		delete(s.procs, p)
		if r := recover(); r != nil {
			if _, ok := r.(killSignal); !ok {
				s.failure = fmt.Sprintf("des: process %q panicked: %v", p.name, r)
			}
		}
	}()
	if !p.killed {
		fn(p)
	}
}

// killSignal unwinds a killed process's stack from inside park. It is
// recognized (and swallowed) by run's recover, so a kill terminates the
// process cleanly instead of surfacing as a simulation panic.
type killSignal struct{}

// Kill terminates the process at its next scheduling point: a parked or
// sleeping process unwinds without ever resuming its blocking call, and a
// process killed before its first transfer never runs. Killing a dead or
// already-killed process is a no-op. Kill models fail-stop faults — the
// process simply stops computing and communicating; any cleanup its stack
// would have done does not happen.
func (p *Proc) Kill() {
	if p.dead || p.killed {
		return
	}
	p.killed = true
	s := p.sim
	s.scheduleProc(s.now, p)
}

// drive is the event loop, run on whichever stack holds the baton: Run's
// goroutine (self == nil) or a parking process's coroutine. It runs
// callbacks in place until the popped event resumes a process. If that is
// self, drive returns true and the caller carries on with no switch at
// all. A process whose loop pops another's resume leaves it in pending and
// returns false: park yields, and Run's goroutine — the only caller of
// next — resumes whatever is pending until nothing is, then carries on
// popping. A process also returns false, with nothing pending, when the
// run is over (queue drained, Halt, a failure). A callback's panic on a
// process's coroutine is caught here, below the process body's frames (its
// deferred recovers never see it), for Run to re-raise; on Run's goroutine
// it simply propagates.
func (s *Simulator) drive(self *Proc) (resumed bool) {
	if self != nil {
		defer func() {
			if r := recover(); r != nil {
				s.failure = r
			}
		}()
	}
	for len(s.queue) > 0 && !s.halted && s.failure == nil {
		ev := s.queue.pop()
		s.now = ev.at
		p, fn, arg, fire := ev.proc, ev.fn, ev.arg, ev.fire
		s.recycle(ev) // before control can leave this stack
		switch {
		case fn != nil:
			fn(arg)
		case fire != nil:
			fire()
		case p.dead:
			// A stale wake: the process died after the event was scheduled.
		case p == self:
			return true
		case self != nil:
			s.pending = p
			return false
		default:
			for s.pending = p; s.pending != nil; {
				p, s.pending = s.pending, nil
				p.next()
			}
		}
	}
	return false
}

// park blocks the process until an event resumes it, running the event
// loop on the process's own coroutine meanwhile. If the process was killed
// while blocked, park never returns: the stack unwinds via killSignal and
// run's recover terminates the process.
func (p *Proc) park(why string, lazy fmt.Stringer) {
	p.blockedOn, p.blockedFor = why, lazy
	if !p.sim.drive(p) {
		p.yield(struct{}{})
	}
	if p.killed {
		panic(killSignal{})
	}
	p.blockedOn, p.blockedFor = "", nil
}

// Sleep advances the process's virtual time by d. A non-positive d yields
// control without advancing time, which still gives other ready processes a
// chance to run at the same timestamp.
func (p *Proc) Sleep(d time.Duration) {
	s := p.sim
	s.scheduleProc(s.now+DurationToTime(d), p)
	p.park("sleep", nil)
}

// SleepUntil advances the process's virtual time to at (no-op if at is in
// the past).
func (p *Proc) SleepUntil(at Time) {
	s := p.sim
	s.scheduleProc(at, p)
	p.park("sleep-until", nil)
}

// Park blocks the process indefinitely; some other process or event callback
// must call Unpark to resume it. why is reported in deadlock diagnostics.
func (p *Proc) Park(why string) { p.park(why, nil) }

// ParkFor is Park with a lazily rendered reason: why.String() runs only if
// the simulation deadlocks with the process still parked, so a hot
// blocking path pays no formatting. why must stay valid and unchanged
// until the process resumes.
func (p *Proc) ParkFor(why fmt.Stringer) { p.park("", why) }

// Unpark schedules p to resume at the current virtual time. It must be
// called from scheduler context or from another (currently running)
// process; p continues on its own coroutine wherever the call was made.
// Unparking a dead process is a no-op: with fault injection a
// process can die between a waker's decision and the wake (the event loop
// already skips events for the dead), so a stale wake must be harmless
// rather than a panic.
func (p *Proc) Unpark() {
	if p.dead {
		return
	}
	s := p.sim
	s.scheduleProc(s.now, p)
}

// DeadlockError is returned by Run when no events remain but live processes
// are still blocked.
type DeadlockError struct {
	// Now is the virtual time at which the simulation stalled.
	Now Time
	// Blocked lists "name: reason" for every parked process.
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("des: deadlock at t=%v: %d process(es) blocked: %v",
		e.Now.Duration(), len(e.Blocked), e.Blocked)
}

// Run executes the simulation until the event queue drains or Halt is
// called. It returns a *DeadlockError if processes remain blocked with no
// pending events, and nil otherwise. Run must be called exactly once.
func (s *Simulator) Run() error {
	if s.ran {
		panic("des: Run called twice")
	}
	s.ran = true
	s.drive(nil)
	if s.failure != nil {
		panic(s.failure)
	}
	if !s.halted && s.live > 0 {
		blocked := make([]string, 0, s.live)
		for p := range s.procs {
			why := p.blockedOn
			if p.blockedFor != nil {
				why = p.blockedFor.String()
			}
			blocked = append(blocked, p.name+": "+why)
		}
		sort.Strings(blocked)
		return &DeadlockError{Now: s.now, Blocked: blocked}
	}
	return nil
}

// Cond is a condition variable in virtual time: processes Wait on it, and
// other processes (or event callbacks) Signal or Broadcast to wake them.
// There is no separate mutex: the simulation's one-process-at-a-time
// execution makes state changes atomic between blocking calls.
type Cond struct {
	waiters []*Proc
}

// Wait parks the calling process until Signal or Broadcast wakes it. As with
// sync.Cond, the caller must re-check its predicate in a loop.
func (c *Cond) Wait(p *Proc, why string) {
	c.waiters = append(c.waiters, p)
	p.park(why, nil)
}

// WaitFor is Wait with a lazily rendered reason (see Proc.ParkFor).
func (c *Cond) WaitFor(p *Proc, why fmt.Stringer) {
	c.waiters = append(c.waiters, p)
	p.park("", why)
}

// Signal wakes one waiting process, if any (FIFO order). Waiters that died
// while parked (killed processes) are discarded so the signal is not lost
// on a corpse.
func (c *Cond) Signal() {
	for len(c.waiters) > 0 {
		p := c.waiters[0]
		n := copy(c.waiters, c.waiters[1:])
		c.waiters[n] = nil
		c.waiters = c.waiters[:n]
		if p.dead {
			continue
		}
		p.Unpark()
		return
	}
}

// Broadcast wakes every waiting process. The list keeps its storage (Unpark
// only schedules, it never touches waiters), so the next Wait is free.
func (c *Cond) Broadcast() {
	for i, p := range c.waiters {
		c.waiters[i] = nil
		p.Unpark()
	}
	c.waiters = c.waiters[:0]
}

// Waiting reports how many processes are currently parked on the condition.
func (c *Cond) Waiting() int { return len(c.waiters) }

// Queue models a single FIFO server with busy-until accounting: each job
// occupies the server for its service duration, starting no earlier than the
// completion of the previous job. It is the building block for bandwidth
// pipes (NIC ports, filesystem streams) where we need completion times but
// no process blocking.
type Queue struct {
	freeAt Time
}

// Next returns the completion time of a job arriving at 'arrive' with the
// given service duration, and advances the server's busy-until time.
func (q *Queue) Next(arrive Time, service time.Duration) Time {
	start := arrive
	if q.freeAt > start {
		start = q.freeAt
	}
	q.freeAt = start + DurationToTime(service)
	return q.freeAt
}

// FreeAt reports when the server becomes idle.
func (q *Queue) FreeAt() Time { return q.freeAt }

// Reset makes the server idle immediately.
func (q *Queue) Reset() { q.freeAt = 0 }
