package des

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	s := New(1)
	var end Time
	s.Spawn("a", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		p.Sleep(5 * time.Millisecond)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := DurationToTime(15 * time.Millisecond); end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestZeroSleepYields(t *testing.T) {
	s := New(1)
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// b1 must run between a's two segments: zero-sleep yields.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Millisecond, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	s := New(1)
	var c Cond
	var woke []string
	for _, name := range []string{"p0", "p1", "p2"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			c.Wait(p, "test")
			woke = append(woke, name)
		})
	}
	s.Spawn("sig", func(p *Proc) {
		p.Sleep(time.Millisecond) // let everyone park first
		c.Signal()
		p.Sleep(time.Millisecond)
		c.Broadcast()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 || woke[0] != "p0" {
		t.Fatalf("woke = %v, want p0 first then all", woke)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := New(1)
	var c Cond
	s.Spawn("stuck", func(p *Proc) {
		c.Wait(p, "never-signalled")
	})
	err := s.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck: never-signalled" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

// lazyWhy counts how often its text is rendered.
type lazyWhy struct{ rendered int }

func (l *lazyWhy) String() string { l.rendered++; return "lazy-reason" }

// TestLazyParkReason: ParkFor and WaitFor render their reason only for
// the deadlock report, never for a park that resumes.
func TestLazyParkReason(t *testing.T) {
	s := New(1)
	var c Cond
	var woken, stuckPark, stuckWait lazyWhy
	s.Spawn("sleeper", func(p *Proc) {
		c.WaitFor(p, &woken)
		p.ParkFor(&stuckPark)
	})
	s.Spawn("waiter", func(p *Proc) {
		c.Broadcast()
		c.WaitFor(p, &stuckWait)
	})
	de, ok := s.Run().(*DeadlockError)
	if !ok || len(de.Blocked) != 2 || de.Blocked[0] != "sleeper: lazy-reason" || de.Blocked[1] != "waiter: lazy-reason" {
		t.Fatalf("deadlock report = %v", de)
	}
	if woken.rendered != 0 || stuckPark.rendered != 1 || stuckWait.rendered != 1 {
		t.Fatalf("rendered woken=%d park=%d wait=%d, want 0/1/1", woken.rendered, stuckPark.rendered, stuckWait.rendered)
	}
}

func TestParkUnpark(t *testing.T) {
	s := New(1)
	var target *Proc
	done := false
	target = s.Spawn("sleeper", func(p *Proc) {
		p.Park("waiting for friend")
		done = true
	})
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		target.Unpark()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("sleeper never resumed")
	}
}

// TestSpawnFromProcess: a process spawns children from its own body, and a
// callback spawns one while the event loop is running on a parked
// process's coroutine (the parent's: it is the only process parked when
// the callback fires). Each child is a coroutine of Run's goroutine like
// any other, whichever stack made it.
func TestSpawnFromProcess(t *testing.T) {
	s := New(1)
	sum := 0
	child := func(i int) func(*Proc) {
		return func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			sum += i
		}
	}
	s.Spawn("parent", func(p *Proc) {
		s.After(time.Microsecond, func() { s.Spawn("callback child", child(4)) })
		p.Sleep(2 * time.Microsecond)
		for i := 1; i <= 3; i++ {
			s.Spawn("child", child(i))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 10 {
		t.Fatalf("sum = %d, want 10", sum)
	}
}

func TestHaltStopsRun(t *testing.T) {
	s := New(1)
	ticks := 0
	s.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
			ticks++
			if ticks == 5 {
				s.Halt()
				p.Park("halted")
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		s := New(42)
		var stamps []Time
		for i := 0; i < 8; i++ {
			s.Spawn("p", func(p *Proc) {
				for j := 0; j < 4; j++ {
					d := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
					p.Sleep(d)
					stamps = append(stamps, p.Now())
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stamp %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestQueueSerializes(t *testing.T) {
	var q Queue
	// Two jobs arriving at t=0, 10ms each: second completes at 20ms.
	c1 := q.Next(0, 10*time.Millisecond)
	c2 := q.Next(0, 10*time.Millisecond)
	if c1 != DurationToTime(10*time.Millisecond) {
		t.Fatalf("c1 = %v", c1)
	}
	if c2 != DurationToTime(20*time.Millisecond) {
		t.Fatalf("c2 = %v", c2)
	}
	// A job arriving after the queue drained starts immediately.
	c3 := q.Next(DurationToTime(time.Second), time.Millisecond)
	if c3 != DurationToTime(time.Second+time.Millisecond) {
		t.Fatalf("c3 = %v", c3)
	}
}

// Property: queue completions are monotonically non-decreasing and each
// completion is at least arrival+service.
func TestQueueMonotoneProperty(t *testing.T) {
	f := func(arrivals []uint32, services []uint16) bool {
		var q Queue
		var prev Time
		n := len(arrivals)
		if len(services) < n {
			n = len(services)
		}
		at := Time(0)
		for i := 0; i < n; i++ {
			at += Time(arrivals[i] % 1e6) // non-decreasing arrivals
			svc := time.Duration(services[i]) * time.Nanosecond
			c := q.Next(at, svc)
			if c < prev || c < at+DurationToTime(svc) {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSecondsToDuration(t *testing.T) {
	if d := SecondsToDuration(1.5); d != 1500*time.Millisecond {
		t.Fatalf("d = %v", d)
	}
	if d := SecondsToDuration(-3); d != 0 {
		t.Fatalf("negative should clamp to 0, got %v", d)
	}
	if d := SecondsToDuration(1e300); d <= 0 {
		t.Fatalf("huge value should saturate positive, got %v", d)
	}
}

func TestTimeConversions(t *testing.T) {
	tm := DurationToTime(2500 * time.Millisecond)
	if s := tm.Seconds(); s != 2.5 {
		t.Fatalf("Seconds = %v", s)
	}
	if d := tm.Duration(); d != 2500*time.Millisecond {
		t.Fatalf("Duration = %v", d)
	}
}

func TestAccessorsAndSleepUntil(t *testing.T) {
	s := New(9)
	var c Cond
	s.Spawn("worker", func(p *Proc) {
		if p.Name() != "worker" || p.Sim() != s {
			t.Error("accessors wrong")
		}
		p.SleepUntil(DurationToTime(5 * time.Millisecond))
		if p.Now() != DurationToTime(5*time.Millisecond) {
			t.Errorf("SleepUntil landed at %v", p.Now())
		}
		p.SleepUntil(DurationToTime(time.Millisecond)) // past: no-op in time
		if p.Now() != DurationToTime(5*time.Millisecond) {
			t.Errorf("past SleepUntil moved the clock to %v", p.Now())
		}
	})
	s.At(DurationToTime(2*time.Millisecond), func() {
		if s.Now() != DurationToTime(2*time.Millisecond) {
			t.Error("At fired at the wrong time")
		}
	})
	if c.Waiting() != 0 {
		t.Error("empty cond should report no waiters")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != DurationToTime(5*time.Millisecond) {
		t.Fatalf("final time = %v", s.Now())
	}
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("process panic should propagate out of Run")
		}
	}()
	s := New(1)
	s.Spawn("bomb", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	_ = s.Run()
}

func TestUnparkDeadProcIsNoop(t *testing.T) {
	// With fault injection a process can die between a waker's decision and
	// the wake, so a stale Unpark must be harmless.
	s := New(1)
	var target *Proc
	target = s.Spawn("shortlived", func(p *Proc) {})
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(time.Millisecond) // target has terminated by now
		target.Unpark()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !target.Dead() {
		t.Fatal("target should be dead")
	}
}

func TestKillParkedProc(t *testing.T) {
	s := New(1)
	var victim *Proc
	resumed := false
	victim = s.Spawn("victim", func(p *Proc) {
		p.Park("waiting forever")
		resumed = true
	})
	s.Spawn("killer", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		victim.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err) // the kill must clear the would-be deadlock
	}
	if resumed {
		t.Fatal("killed process must not resume past its blocking call")
	}
	if !victim.Dead() || !victim.Killed() {
		t.Fatalf("victim dead=%v killed=%v, want true/true", victim.Dead(), victim.Killed())
	}
}

func TestKillSleepingProcStopsClock(t *testing.T) {
	s := New(1)
	var victim *Proc
	victim = s.Spawn("victim", func(p *Proc) {
		p.Sleep(time.Hour)
	})
	s.Spawn("killer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		victim.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The victim's hour-long sleep event still fires (and is ignored), so
	// the clock runs to the hour mark, but the victim is long dead.
	if !victim.Dead() {
		t.Fatal("victim should be dead")
	}
}

func TestKillBeforeFirstRun(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	ran := false
	p := s.Spawn("stillborn", func(p *Proc) { ran = true })
	p.Kill()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("a process killed before its first transfer must not run")
	}
	if !p.Dead() {
		t.Fatal("killed process should be dead")
	}
	// Its coroutine ran no line of the body and is not left behind parked.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after the run, %d before: the stillborn process's coroutine is still there", after, before)
	}
}

func TestKillCondWaiterThenSignal(t *testing.T) {
	// A Signal after a waiter died must not be lost on the corpse: the next
	// live waiter gets it.
	s := New(1)
	var c Cond
	var first *Proc
	secondWoke := false
	first = s.Spawn("first", func(p *Proc) {
		c.Wait(p, "first wait")
		t.Error("killed waiter must not wake")
	})
	s.Spawn("second", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Wait(p, "second wait")
		secondWoke = true
	})
	s.Spawn("driver", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		first.Kill()
		p.Sleep(time.Millisecond)
		c.Signal()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !secondWoke {
		t.Fatal("signal was lost on a dead waiter")
	}
}

func TestQueueFreeAtAndReset(t *testing.T) {
	var q Queue
	q.Next(0, 5*time.Millisecond)
	if q.FreeAt() != DurationToTime(5*time.Millisecond) {
		t.Fatalf("FreeAt = %v", q.FreeAt())
	}
	q.Reset()
	if q.FreeAt() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestDeadlockErrorMessage(t *testing.T) {
	err := &DeadlockError{Now: DurationToTime(time.Second), Blocked: []string{"a: x"}}
	if msg := err.Error(); msg == "" || !strings.Contains(msg, "1 process(es)") {
		t.Fatalf("message = %q", msg)
	}
}

// The tests below pin the kernel's contract for each way the baton can be
// held: the event loop runs on Run's goroutine until the first process
// starts and whenever a process has finished or yielded to another, and
// otherwise on the coroutine of the process that parked last.

// TestCallbackPanicSurfacesFromRun: a callback's panic leaves Run on Run's
// goroutine (the recover deferred around Run catches it; anywhere else it
// would crash the test binary) carrying the callback's own value, whichever
// stack was executing the loop, and never unwinds through the body of the
// process whose coroutine that was.
func TestCallbackPanicSurfacesFromRun(t *testing.T) {
	boom := errors.New("callback boom")
	runAndRecover := func(s *Simulator) (r any) {
		defer func() { r = recover() }()
		_ = s.Run()
		return nil
	}
	bodySaw := false
	cases := []struct {
		name  string
		setup func(s *Simulator)
	}{
		{"run goroutine", func(s *Simulator) {
			s.After(time.Millisecond, func() { panic(boom) })
		}},
		{"parked process goroutine", func(s *Simulator) {
			s.Spawn("parked", func(p *Proc) {
				defer func() {
					if recover() != nil {
						bodySaw = true
					}
				}()
				p.Park("holding the baton")
			})
			s.AtCall(DurationToTime(time.Millisecond), func(any) { panic(boom) }, nil)
		}},
		{"finished process goroutine", func(s *Simulator) {
			s.Spawn("finished", func(p *Proc) {})
			s.After(time.Millisecond, func() { panic(boom) })
		}},
	}
	for _, tc := range cases {
		s := New(1)
		tc.setup(s)
		if r := runAndRecover(s); r != boom {
			t.Errorf("%s: Run panicked with %v, want the callback's own value %v", tc.name, r, boom)
		}
	}
	if bodySaw {
		t.Error("a callback's panic unwound through the parked process's body")
	}
}

// TestProcPanicText pins the text a process body's panic surfaces with.
func TestProcPanicText(t *testing.T) {
	defer func() {
		if r, want := recover(), `des: process "bomb" panicked: boom`; r != want {
			t.Fatalf("Run panicked with %v, want %q", r, want)
		}
	}()
	s := New(1)
	s.Spawn("bystander", func(p *Proc) { p.Park("elsewhere") })
	s.Spawn("bomb", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	_ = s.Run()
}

// TestKillFromCallback: a callback kills the process on whose coroutine it
// is executing (the only process, parked, so it holds the baton), and one
// running on another process's coroutine kills a parked bystander. Either
// way the victim unwinds without resuming its blocking call.
func TestKillFromCallback(t *testing.T) {
	for _, other := range []bool{false, true} {
		s := New(1)
		resumed := false
		victim := s.Spawn("victim", func(p *Proc) {
			p.Park("waiting forever")
			resumed = true
		})
		survived := !other
		if other {
			// The sleeper parks after the victim, so the loop that fires
			// the callback runs on the sleeper's goroutine.
			s.Spawn("sleeper", func(p *Proc) {
				p.Sleep(time.Hour)
				survived = true
			})
		}
		s.After(time.Millisecond, victim.Kill)
		if err := s.Run(); err != nil {
			t.Fatalf("other=%v: %v", other, err)
		}
		if resumed || !victim.Dead() || !victim.Killed() {
			t.Errorf("other=%v: victim resumed=%v dead=%v killed=%v, want false/true/true", other, resumed, victim.Dead(), victim.Killed())
		}
		if !survived {
			t.Errorf("other=%v: the sleeper never finished", other)
		}
	}
}

// TestDeadlockFoundOnProcessGoroutine: the queue drains after the loop has
// run on process coroutines (the last process finishes after the stuck one
// parked); Run still reports the deadlock, with the same text.
func TestDeadlockFoundOnProcessGoroutine(t *testing.T) {
	s := New(1)
	var c Cond
	s.Spawn("stuck", func(p *Proc) { c.Wait(p, "never-signalled") })
	s.Spawn("late", func(p *Proc) { p.Sleep(time.Millisecond) })
	err := s.Run()
	if _, ok := err.(*DeadlockError); !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if got, want := err.Error(), "des: deadlock at t=1ms: 1 process(es) blocked: [stuck: never-signalled]"; got != want {
		t.Fatalf("err = %q, want %q", got, want)
	}
}

// TestHaltFromSleepingProcess: Halt is noticed by the loop on the halting
// process's own coroutine when it next parks; Run returns nil, the clock
// stops there and pending events are discarded.
func TestHaltFromSleepingProcess(t *testing.T) {
	s := New(1)
	woke, fired := false, false
	s.Spawn("halter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Halt()
		p.Sleep(time.Millisecond)
		woke = true
	})
	s.Spawn("bystander", func(p *Proc) { p.Park("never woken") })
	s.After(time.Second, func() { fired = true })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woke || fired || s.Now() != DurationToTime(time.Millisecond) {
		t.Fatalf("after Halt: woke=%v fired=%v now=%v, want false/false/1ms", woke, fired, s.Now())
	}
}

// TestGoexitInBodyEndsRunsCaller: runtime.Goexit in a process body (what
// t.FailNow does) ends the goroutine that called Run — Run never returns
// there — with everything the simulation did up to that point intact and
// nothing after it.
func TestGoexitInBodyEndsRunsCaller(t *testing.T) {
	s := New(1)
	var steps []string
	s.Spawn("worker", func(p *Proc) {
		steps = append(steps, "w@0")
		p.Sleep(2 * time.Millisecond)
		steps = append(steps, "w@2ms")
	})
	s.Spawn("quitter", func(p *Proc) {
		defer func() { steps = append(steps, "q deferred") }()
		p.Sleep(time.Millisecond)
		steps = append(steps, "q@1ms")
		runtime.Goexit()
	})
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		_ = s.Run()
		returned = true
	}()
	<-exited
	if returned {
		t.Error("Run returned normally after a process body called runtime.Goexit")
	}
	if got, want := strings.Join(steps, ", "), "w@0, q@1ms, q deferred"; got != want {
		t.Errorf("steps = %q, want %q", got, want)
	}
	if s.Now() != DurationToTime(time.Millisecond) {
		t.Errorf("clock = %v, want it stopped at 1ms", s.Now())
	}
}

// BenchmarkProcSwitch times one process resume: N processes loop
// Sleep(1ns) in lockstep, so with one process every resume returns control
// to the process that just parked, and with more every resume hands it to
// a different one. ns/op is ns per resume.
func BenchmarkProcSwitch(b *testing.B) {
	for _, bc := range []struct {
		name  string
		procs int
	}{{"self", 1}, {"2", 2}, {"128", 128}} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(1)
			per := b.N/bc.procs + 1
			for i := 0; i < bc.procs; i++ {
				s.Spawn("p", func(p *Proc) {
					for j := 0; j < per; j++ {
						p.Sleep(time.Nanosecond)
					}
				})
			}
			b.ResetTimer()
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
