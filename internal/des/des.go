// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel drives a set of processes (Proc) in virtual time. Each process
// runs on a coroutine (iter.Pull) that the goroutine calling Run resumes, so
// exactly one executes at a time: control is a baton, handed over by
// coroutine switches that never enter the Go scheduler, and there is no
// scheduler goroutine — a process that parks runs the event loop itself
// (see drive). Events are popped in (time, sequence) order whoever pops
// them, so a simulation is fully deterministic: given the same seed and the
// same program, every run produces the same event ordering and the same
// virtual timestamps.
//
// A coroutine outlives its process. A process takes one from a process-wide
// idle list at its first transfer, and when its body ends the coroutine
// goes back to the list, parked there until a process of any simulation, on
// any goroutine, takes it for the next body (see coro). A simulation of a
// few hundred processes therefore makes its coroutines once per program,
// not once per run.
//
// A process body that panics fails the simulation (Run re-raises it); one
// that calls runtime.Goexit (t.FailNow) ends the goroutine that called Run,
// as if Run itself had. Processes still parked when Run ends — deadlocked,
// halted or failed — end there, one at a time in spawn order, as if their
// bodies had called runtime.Goexit: their deferred functions run, a recover
// in them sees no panic, and their coroutines end with them.
//
// The package provides the primitives the MPI runtime model is built on:
//
//   - Simulator: the event queue and virtual clock.
//   - Proc: a coroutine-style simulated process (Sleep, ParkFor, Now).
//   - Cond: a condition variable in virtual time.
//   - Queue: a FIFO server used for busy-until bandwidth accounting
//     (NIC ports, filesystem service, ...).
//
// Virtual time is measured in integer nanoseconds (Time). Durations use
// time.Duration so call sites read naturally.
package des

import (
	"cmp"
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
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
// arbitrary closure (At). The specializations exist so the hot
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

// At schedules fn to run at absolute virtual time at. fn runs in scheduler
// context — inside the event loop, on whichever stack holds the baton (see
// event): it may wake processes but must not itself block.
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
// process's own coroutine (inside the function passed to SpawnFor), except
// Kill, which may be called from scheduler context or another process.
type Proc struct {
	sim *Simulator
	id  uint64 // spawn order: the sequence number of its start event
	// name renders the process's name for panics and deadlock reports.
	name fmt.Stringer
	body func(p *Proc)
	// co is the coroutine the process runs on, from its first transfer to
	// its end (nil before and after). next transfers control into it (only
	// Run's goroutine calls it) and yield transfers it back from park: co's
	// own, copied here so that a switch is one call.
	co     *coro
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

// Dead reports whether the process has terminated (returned, panicked, or
// been killed).
func (p *Proc) Dead() bool { return p.dead }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// SpawnFor creates a process executing fn and schedules its start at the
// current virtual time. It may be called before Run, from a running
// process or from a callback. The process takes its coroutine at its first
// transfer, not here. name is rendered lazily, as ParkFor's reason is:
// name.String() runs only if a panic or a deadlock report names the
// process, so name must be non-nil and stay valid while the process lives.
func (s *Simulator) SpawnFor(name fmt.Stringer, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, body: fn}
	s.procs[p] = struct{}{}
	s.live++
	s.scheduleProc(s.now, p)
	p.id = s.seq
	return p
}

// coro is a coroutine that runs process bodies one after another. When a
// body ends the coroutine yields instead of returning; Run's goroutine,
// back from the transfer with the process dead, puts it on the idle list
// (release), where it waits, parked in that yield, for the next process to
// take it (takeCoro). Above idleCap, release stops it instead and its
// sequence function returns. A coroutine whose body panicked out of run or
// called runtime.Goexit has ended, and never reaches the list.
type coro struct {
	next func() (struct{}, bool)
	stop func()
	p    *Proc // the process it runs, from takeCoro to release
}

// idleCap bounds the idle list: room for the benchmark's simulation (136
// processes) and then some. A larger run makes the rest anew each time.
const idleCap = 256

// idle is the process-wide list of coroutines waiting for a body. It is a
// mutex-guarded slice, not a sync.Pool: a coroutine the pool dropped would
// be a parked goroutine leaked, not garbage.
var idle struct {
	sync.Mutex
	coros []*coro
}

// takeCoro gives p a coroutine, an idle one if there is one.
func takeCoro(p *Proc) {
	var c *coro
	idle.Lock()
	if n := len(idle.coros); n > 0 {
		c = idle.coros[n-1]
		idle.coros[n-1] = nil
		idle.coros = idle.coros[:n-1]
	}
	idle.Unlock()
	if c == nil {
		c = new(coro)
		c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
			for ok := true; ok; ok = yield(struct{}{}) {
				c.p.yield = yield
				c.p.run()
			}
		})
	}
	c.p = p
	p.co, p.next = c, c.next
}

// release returns a dead process's coroutine to the idle list, or stops it
// when the list is full.
func (p *Proc) release() {
	c := p.co
	p.co, p.next, p.yield = nil, nil, nil
	c.p = nil
	idle.Lock()
	if len(idle.coros) < idleCap {
		idle.coros = append(idle.coros, c)
		c = nil
	}
	idle.Unlock()
	if c != nil {
		c.stop()
	}
}

// end marks the process dead and drops it from the live set.
func (p *Proc) end() {
	s := p.sim
	p.dead = true
	s.live--
	delete(s.procs, p)
}

// run executes the process body and marks the process dead however the
// body ends. A kill unwinds silently; any other panic becomes the
// simulation's failure, which Run re-raises.
func (p *Proc) run() {
	defer func() {
		p.end()
		if r := recover(); r != nil {
			if _, ok := r.(killSignal); !ok {
				p.sim.failure = fmt.Sprintf("des: process %q panicked: %v", p.name.String(), r)
			}
		}
	}()
	p.body(p)
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
// run is over (queue drained, halted, a failure). A callback's panic on a
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
		p, fn, arg, fire := ev.proc, ev.fn, ev.arg, ev.fire
		if p != nil && p.dead { // a stale wake, of nothing: the clock stays put
			s.recycle(ev)
			continue
		}
		s.now = ev.at
		s.recycle(ev) // before control can leave this stack
		switch {
		case fn != nil:
			fn(arg)
		case fire != nil:
			fire()
		case p == self:
			return true
		case self != nil:
			s.pending = p
			return false
		default:
			for s.pending = p; s.pending != nil; {
				p, s.pending = s.pending, nil
				if p.next == nil { // the first transfer
					if p.killed { // killed before it ran: it never will
						p.end()
						continue
					}
					takeCoro(p)
				}
				p.next()
				if p.dead {
					p.release()
				}
			}
		}
	}
	return false
}

// park blocks the process until an event resumes it, running the event
// loop on the process's own coroutine meanwhile. If the process was killed
// while blocked, park never returns: the stack unwinds via killSignal and
// run's recover terminates the process. Once the simulator has halted no
// event resumes a process, so a killed process that wakes then is being
// reaped at the end of Run, and unwinds by runtime.Goexit instead.
func (p *Proc) park(why string, lazy fmt.Stringer) {
	p.blockedOn, p.blockedFor = why, lazy
	if !p.sim.drive(p) {
		p.yield(struct{}{})
	}
	if p.killed {
		if p.sim.halted {
			runtime.Goexit()
		}
		panic(killSignal{})
	}
	p.blockedOn, p.blockedFor = "", nil
}

// Sleep advances the process's virtual time by d. A non-positive d yields
// control without advancing time, which still gives other ready processes a
// chance to run at the same timestamp.
func (p *Proc) Sleep(d time.Duration) { p.SleepUntil(p.sim.now + DurationToTime(d)) }

// SleepUntil advances the process's virtual time to at (no-op if at is in
// the past). A wake no queued event can overtake (a tie yields to the lower
// sequence) would be popped next, by this process's own loop, so unless a
// halt, a failure or a kill needs the loop, the clock advances in place:
// the wake's sequence number is spent, and nothing is pushed or popped.
func (p *Proc) SleepUntil(at Time) {
	s := p.sim
	at = max(at, s.now)
	if !p.killed && !s.halted && s.failure == nil && (len(s.queue) == 0 || at < s.queue[0].at) {
		s.seq++
		s.now = at
		return
	}
	s.scheduleProc(at, p)
	p.park("sleep", nil)
}

// ParkFor blocks the process indefinitely; some other process or event
// callback must call Unpark to resume it. why is reported in deadlock
// diagnostics, rendered lazily: why.String() runs only if the simulation
// deadlocks with the process still parked, so a hot blocking path pays no
// formatting. why must stay valid and unchanged until the process resumes.
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

// Run executes the simulation until the event queue drains or the
// simulator halts (once halted, Run returns when the executing process
// parks, discarding the remaining events). It returns a *DeadlockError if
// processes remain blocked with no pending events, and nil otherwise.
// However Run ends, it reaps the processes still parked. Run must be called
// exactly once.
func (s *Simulator) Run() error {
	if s.ran {
		panic("des: Run called twice")
	}
	s.ran = true
	defer s.reap()
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
			blocked = append(blocked, p.name.String()+": "+why)
		}
		sort.Strings(blocked)
		return &DeadlockError{Now: s.now, Blocked: blocked}
	}
	return nil
}

// reap ends every process still parked when Run ends — deadlocked, halted,
// failed, or with Run's goroutine exiting — so that none keeps its
// coroutine, and through it the whole simulation, alive. Each, in spawn
// order, is killed and resumed into runtime.Goexit (see park): its deferred
// functions run, a recover in them sees no panic, and the coroutine ends.
// iter.Pull hands a coroutine's Goexit on to whoever resumed it, so each is
// resumed from a goroutine of its own, which reap waits for. A process that
// never ran holds no coroutine and is left as it is.
func (s *Simulator) reap() {
	var parked []*Proc
	for p := range s.procs {
		if p.next != nil {
			parked = append(parked, p)
		}
	}
	slices.SortFunc(parked, func(a, b *Proc) int { return cmp.Compare(a.id, b.id) })
	done := make(chan struct{})
	for _, p := range parked {
		s.halted = true // no event runs again; see park
		p.killed = true
		go func() {
			defer func() { done <- struct{}{} }()
			p.next()
		}()
		<-done
	}
}

// Cond is a condition variable in virtual time: processes Wait on it, and
// other processes (or event callbacks) Broadcast to wake them.
// There is no separate mutex: the simulation's one-process-at-a-time
// execution makes state changes atomic between blocking calls.
type Cond struct {
	waiters []*Proc
}

// Wait parks the calling process until Broadcast wakes it. As with
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

// Broadcast wakes every waiting process. The list keeps its storage (Unpark
// only schedules, it never touches waiters), so the next Wait is free.
func (c *Cond) Broadcast() {
	for i, p := range c.waiters {
		c.waiters[i] = nil
		p.Unpark()
	}
	c.waiters = c.waiters[:0]
}

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
