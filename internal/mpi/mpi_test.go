package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
)

// runSPMD runs a single-program world with n ranks executing main and
// returns the world after a successful run.
func runSPMD(t *testing.T, n int, main func(r *Rank)) *World {
	t.Helper()
	w := NewWorld(DefaultConfig(), Program{Name: "app", Procs: n, Main: main})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return w
}

// worldComm returns the communicator spanning the rank's program. A
// communicator is a shared object: every member must use the same instance
// for collectives to match, so we cache one per (world, program).
func worldComm(r *Rank) *Comm {
	w := r.World()
	return commCache(w, fmt.Sprintf("prog%d", r.prog), w.ProgramRanks(r.prog))
}

// isend and irecv post a non-blocking request into fresh storage.
func isend(r *Rank, c *Comm, dst, tag int, size int64) *Request {
	req := new(Request)
	r.IsendInto(req, c, dst, tag, size, nil)
	return req
}

func irecv(r *Rank, c *Comm, src, tag int) *Request {
	req := new(Request)
	r.IrecvInto(req, c, src, tag)
	return req
}

func TestSendRecvPayload(t *testing.T) {
	var got []byte
	var status Status
	runSPMD(t, 2, func(r *Rank) {
		c := r.World().Universe()
		switch r.Global() {
		case 0:
			r.Send(c, 1, 7, 5, []byte("hello"))
		case 1:
			status, got = r.Recv(c, 0, 7)
		}
	})
	if string(got) != "hello" {
		t.Fatalf("payload = %q", got)
	}
	if status.Source != 0 || status.Tag != 7 || status.Size != 5 {
		t.Fatalf("status = %+v", status)
	}
}

func TestRecvBlocksUntilArrival(t *testing.T) {
	var recvDone, sendAt float64
	runSPMD(t, 2, func(r *Rank) {
		c := r.World().Universe()
		switch r.Global() {
		case 0:
			r.Compute(10 * time.Millisecond)
			sendAt = r.Now().Seconds()
			r.Send(c, 1, 0, 100, nil)
		case 1:
			r.Recv(c, 0, 0)
			recvDone = r.Now().Seconds()
		}
	})
	if recvDone < sendAt {
		t.Fatalf("recv completed at %v before send at %v", recvDone, sendAt)
	}
}

func TestNonOvertakingSamePair(t *testing.T) {
	const n = 50
	var order []int
	runSPMD(t, 2, func(r *Rank) {
		c := r.World().Universe()
		switch r.Global() {
		case 0:
			for i := 0; i < n; i++ {
				r.Send(c, 1, 3, int64(1000+i), nil)
			}
		case 1:
			for i := 0; i < n; i++ {
				st, _ := r.Recv(c, 0, 3)
				order = append(order, int(st.Size)-1000)
			}
		}
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("messages overtook: order = %v", order)
		}
	}
}

func TestWildcardRecv(t *testing.T) {
	srcs := map[int]bool{}
	runSPMD(t, 4, func(r *Rank) {
		c := r.World().Universe()
		if r.Global() == 0 {
			for i := 0; i < 3; i++ {
				st, _ := r.Recv(c, AnySource, AnyTag)
				srcs[st.Source] = true
			}
		} else {
			r.Send(c, 0, 10+r.Global(), 8, nil)
		}
	})
	if len(srcs) != 3 {
		t.Fatalf("got sources %v, want 3 distinct", srcs)
	}
}

func TestTagSelectivity(t *testing.T) {
	var first Status
	runSPMD(t, 2, func(r *Rank) {
		c := r.World().Universe()
		switch r.Global() {
		case 0:
			r.Send(c, 1, 1, 11, nil)
			r.Send(c, 1, 2, 22, nil)
		case 1:
			// Receive tag 2 first even though tag 1 arrived first.
			first, _ = r.Recv(c, 0, 2)
			r.Recv(c, 0, 1)
		}
	})
	if first.Tag != 2 || first.Size != 22 {
		t.Fatalf("tag-selective recv got %+v", first)
	}
}

func TestIsendIrecvWaitall(t *testing.T) {
	ok := false
	runSPMD(t, 2, func(r *Rank) {
		c := r.World().Universe()
		switch r.Global() {
		case 0:
			reqs := []*Request{
				isend(r, c, 1, 0, 100),
				isend(r, c, 1, 1, 200),
				irecv(r, c, 1, 9),
			}
			r.Waitall(reqs)
			ok = reqs[2].Status.Size == 300
		case 1:
			a := irecv(r, c, 0, 0)
			b := irecv(r, c, 0, 1)
			r.Send(c, 0, 9, 300, nil)
			r.Waitall([]*Request{a, b})
		}
	})
	if !ok {
		t.Fatal("Waitall exchange failed")
	}
}

func TestDoubleWaitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double wait")
		}
	}()
	w := NewWorld(DefaultConfig(), Program{Name: "a", Procs: 2, Main: func(r *Rank) {
		c := r.World().Universe()
		if r.Global() == 0 {
			req := isend(r, c, 1, 0, 1)
			r.Waitall([]*Request{req})
			r.Waitall([]*Request{req})
		} else {
			r.Recv(c, 0, 0)
		}
	}})
	_ = w.Run()
}

func TestIprobe(t *testing.T) {
	var before, after bool
	runSPMD(t, 2, func(r *Rank) {
		c := r.World().Universe()
		switch r.Global() {
		case 0:
			before, _ = r.Iprobe(c, 1, 0)
			r.Compute(10 * time.Millisecond) // let the message arrive
			after, _ = r.Iprobe(c, 1, 0)
			r.Recv(c, 1, 0)
		case 1:
			r.Send(c, 0, 0, 64, nil)
		}
	})
	if before {
		t.Fatal("Iprobe matched before any send could arrive")
	}
	if !after {
		t.Fatal("Iprobe missed an arrived message")
	}
}

// sendRecv is MPI_Sendrecv made of the nonblocking pair: it sends size
// bytes to dst and returns the status of the message received from src.
func sendRecv(r *Rank, c *Comm, dst, src int, size int64) Status {
	rq := irecv(r, c, src, 0)
	r.Waitall([]*Request{isend(r, c, dst, 0, size), rq})
	return rq.Status
}

func TestSendRecvCombined(t *testing.T) {
	sizes := make([]int64, 4)
	runSPMD(t, 4, func(r *Rank) {
		c := r.World().Universe()
		me := r.Global()
		right := (me + 1) % 4
		left := (me + 3) % 4
		st := sendRecv(r, c, right, left, int64(100+me))
		sizes[me] = st.Size
	})
	for me, sz := range sizes {
		left := (me + 3) % 4
		if sz != int64(100+left) {
			t.Fatalf("rank %d got size %d, want %d", me, sz, 100+left)
		}
	}
}

func TestCollectiveWaitTimeObservable(t *testing.T) {
	var waits [2]float64
	runSPMD(t, 2, func(r *Rank) {
		c := worldComm(r)
		if r.Global() == 1 {
			r.Compute(50 * time.Millisecond)
		}
		t0 := r.Now().Seconds()
		r.Allreduce(c, 0)
		waits[r.Global()] = r.Now().Seconds() - t0
	})
	if waits[0] < 0.049 {
		t.Fatalf("early rank should wait ~50ms in the collective, waited %v s", waits[0])
	}
	if waits[1] > 0.01 {
		t.Fatalf("late rank should barely wait, waited %v s", waits[1])
	}
}

func TestCollectiveSequencingIndependentPerComm(t *testing.T) {
	// Two disjoint communicators must not cross-match collectives.
	w := NewWorld(DefaultConfig(), Program{Name: "a", Procs: 4, Main: func(r *Rank) {
		world := r.World()
		var mine *Comm
		if r.Global() < 2 {
			mine = commCache(world, "lo", []int{0, 1})
		} else {
			mine = commCache(world, "hi", []int{2, 3})
		}
		r.Allreduce(mine, 0)
		r.Allreduce(mine, 8)
	}})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// commCache builds one shared comm per key per world (helper for tests where
// multiple ranks need the same communicator object).
var commCaches = map[*World]map[string]*Comm{}

func commCache(w *World, key string, globals []int) *Comm {
	m := commCaches[w]
	if m == nil {
		m = map[string]*Comm{}
		commCaches[w] = m
	}
	if c, ok := m[key]; ok {
		return c
	}
	c := w.NewComm(globals)
	m[key] = c
	return c
}

func TestCollectiveCostGrowsWithRanksAndBytes(t *testing.T) {
	cfg := DefaultConfig()
	c1 := collCost(CollAllreduce, 16, 1024, cfg)
	c2 := collCost(CollAllreduce, 1024, 1024, cfg)
	c3 := collCost(CollAllreduce, 16, 1<<20, cfg)
	if c2 <= c1 {
		t.Fatalf("cost should grow with ranks: %v vs %v", c1, c2)
	}
	if c3 <= c1 {
		t.Fatalf("cost should grow with bytes: %v vs %v", c1, c3)
	}
	if collCost(CollAlltoall, 64, 4096, cfg) <= collCost(CollAllreduce, 64, 4096, cfg) {
		t.Fatal("alltoall should dominate allreduce at equal sizes")
	}
}

func TestMPMDProgramsAndFinishTimes(t *testing.T) {
	w := NewWorld(DefaultConfig(),
		Program{Name: "writer", Procs: 3, Main: func(r *Rank) { r.Compute(5 * time.Millisecond) }},
		Program{Name: "analyzer", Procs: 2, Main: func(r *Rank) { r.Compute(9 * time.Millisecond) }},
	)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(w.ranks) != 5 {
		t.Fatalf("size = %d", len(w.ranks))
	}
	if got := w.ProgramRanks(1); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("analyzer ranks = %v", got)
	}
	if w.ProgramFinish(0).Duration() != 5*time.Millisecond {
		t.Fatalf("writer finish = %v", w.ProgramFinish(0).Duration())
	}
	if w.ProgramFinish(1).Duration() != 9*time.Millisecond {
		t.Fatalf("analyzer finish = %v", w.ProgramFinish(1).Duration())
	}
	if w.ranks[4].prog != 1 || w.ranks[0].prog != 0 {
		t.Fatal("program mapping wrong")
	}
}

func TestCommTranslation(t *testing.T) {
	w := NewWorld(DefaultConfig(), Program{Name: "a", Procs: 6, Main: func(r *Rank) {}})
	c := w.NewComm([]int{4, 2, 0})
	if c.Size() != 3 || c.Global(1) != 2 || c.LocalOf(4) != 0 || c.LocalOf(5) != -1 {
		t.Fatalf("translation wrong: %+v", c)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockReported(t *testing.T) {
	w := NewWorld(DefaultConfig(), Program{Name: "a", Procs: 2, Main: func(r *Rank) {
		c := r.World().Universe()
		// Both ranks receive; nobody sends.
		r.Recv(c, AnySource, AnyTag)
	}})
	if err := w.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

// TestDeadlockReasonText pins the exact text of every lazily rendered
// park reason: the operands are stored at park time and formatted only
// here, when the deadlock report prints the stuck ranks.
func TestDeadlockReasonText(t *testing.T) {
	w := NewWorld(DefaultConfig(), Program{Name: "a", Procs: 4, Main: func(r *Rank) {
		c := r.World().Universe()
		switch r.Global() {
		case 0:
			r.Recv(c, 3, 7)
		case 1:
			r.Recv(c, AnySource, AnyTag)
		case 2:
			r.Allreduce(c, 8) // nobody else joins
		case 3:
			r.Split(c, 0, 0)
		}
	}})
	var de *des.DeadlockError
	if err := w.Run(); !errors.As(err, &de) {
		t.Fatalf("err = %v, want a deadlock", err)
	}
	want := []string{
		"a[0]: recv(src=3 tag=7 comm=0)",
		"a[1]: recv(src=-1 tag=-1 comm=0)",
		"a[2]: MPI_Allreduce(comm=0 seq=0)",
		"a[3]: MPI_Comm_split(comm=0 seq=0)",
	}
	if !reflect.DeepEqual(de.Blocked, want) {
		t.Fatalf("blocked = %q\nwant      %q", de.Blocked, want)
	}
}

func TestDeterministicTimestamps(t *testing.T) {
	run := func() float64 {
		var finish float64
		w := NewWorld(DefaultConfig(), Program{Name: "ring", Procs: 8, Main: func(r *Rank) {
			c := r.World().Universe()
			me := r.Global()
			for iter := 0; iter < 10; iter++ {
				st := isend(r, c, (me+1)%8, 0, 4096)
				r.Recv(c, (me+7)%8, 0)
				r.Waitall([]*Request{st})
			}
			if me == 0 {
				finish = r.Now().Seconds()
			}
		}})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return finish
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

// Property: a ring exchange of any size always delivers exactly the sent
// sizes to each rank's left neighbor.
func TestRingDeliveryProperty(t *testing.T) {
	f := func(seed uint8, nRanks uint8) bool {
		n := int(nRanks%6) + 2
		sizes := make([]int64, n)
		got := make([]int64, n)
		for i := range sizes {
			sizes[i] = int64(seed)*100 + int64(i) + 1
		}
		w := NewWorld(DefaultConfig(), Program{Name: "ring", Procs: n, Main: func(r *Rank) {
			c := r.World().Universe()
			me := r.Global()
			st := sendRecv(r, c, (me+1)%n, (me+n-1)%n, sizes[me])
			got[me] = st.Size
		}})
		if err := w.Run(); err != nil {
			return false
		}
		for me := range got {
			if got[me] != sizes[(me+n-1)%n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestManyToOneThroughputSerializesOnReceiver(t *testing.T) {
	// 8 senders push 1 MB each to rank 0. With 3.2 GB/s endpoint bandwidth
	// the receiver needs at least 8 MB / 3.2 GB/s = 2.5 ms.
	const senders = 8
	var done float64
	w := NewWorld(DefaultConfig(), Program{Name: "a", Procs: senders + 1, Main: func(r *Rank) {
		c := r.World().Universe()
		if r.Global() == 0 {
			for i := 0; i < senders; i++ {
				r.Recv(c, AnySource, 0)
			}
			done = r.Now().Seconds()
		} else {
			r.Send(c, 0, 0, 1<<20, nil)
		}
	}})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	min := float64(senders<<20) / 3.2e9
	if done < min {
		t.Fatalf("receiver finished at %v s, faster than endpoint bandwidth allows (%v s)", done, min)
	}
	if done > 3*min {
		t.Fatalf("receiver finished at %v s, unreasonably slow vs %v s", done, min)
	}
}

func TestInvalidUsagePanics(t *testing.T) {
	cases := []struct {
		name string
		main func(r *Rank)
	}{
		{"send-out-of-range", func(r *Rank) { r.Send(r.World().Universe(), 99, 0, 1, nil) }},
		{"non-member-comm", func(r *Rank) {
			c := r.World().NewComm([]int{1})
			if r.Global() == 0 {
				r.Send(c, 0, 0, 1, nil)
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			w := NewWorld(DefaultConfig(), Program{Name: "a", Procs: 2, Main: tc.main})
			_ = w.Run()
		})
	}
}

func TestEmptyWorldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty world")
		}
	}()
	NewWorld(DefaultConfig())
}

func ExampleWorld_mpmd() {
	w := NewWorld(DefaultConfig(),
		Program{Name: "app", Procs: 2, Main: func(r *Rank) {
			c := r.World().Universe()
			if r.Global() == 0 {
				r.Send(c, 1, 0, 12, []byte("measurement"))
			} else {
				_, payload := r.Recv(c, 0, 0)
				fmt.Println(string(payload))
			}
		}},
	)
	if err := w.Run(); err != nil {
		fmt.Println("error:", err)
	}
	// Output: measurement
}

func TestWorldAccessors(t *testing.T) {
	cfg := DefaultConfig()
	w := NewWorld(cfg, Program{Name: "a", Procs: 2, Main: func(r *Rank) {
		if r.ProgramRank() != r.Global() || r.proc == nil {
			t.Error("rank accessors wrong")
		}
		r.Compute(time.Millisecond)
	}})
	if w.Sim() == nil || w.FS() != nil || w.Seed() != cfg.Seed {
		t.Fatal("world accessors wrong")
	}
	if len(w.Programs()) != 1 || w.ranks[1].Global() != 1 {
		t.Fatal("program table wrong")
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.finishTime[0].Duration() != time.Millisecond {
		t.Fatalf("finish = %v", w.finishTime[0])
	}
}

func TestAllCollectivesComplete(t *testing.T) {
	runSPMD(t, 4, func(r *Rank) {
		c := commCache(r.World(), "coll-all", r.World().ProgramRanks(0))
		r.Allreduce(c, 4096)
		r.Alltoall(c, 256)
	})
}

func TestCollKindNames(t *testing.T) {
	for k := CollBarrier; k <= CollAlltoall; k++ {
		if name := k.String(); name == "" || name[0] != 'M' {
			t.Fatalf("name of %d = %q", int(k), name)
		}
	}
	if CollKind(99).String() == "" {
		t.Fatal("unknown kind should stringify")
	}
}

func TestSingletonCommCollectiveIsFree(t *testing.T) {
	runSPMD(t, 1, func(r *Rank) {
		c := r.World().Universe()
		t0 := r.Now()
		r.Allreduce(c, 1<<20)
		if d := (r.Now() - t0).Duration(); d > time.Microsecond {
			t.Errorf("singleton collective cost %v", d)
		}
	})
}

// TestAllreduceAllocsPerCollective: a warm 64-rank Allreduce allocates 2
// objects per collective — the collState and its waiter list, made by the
// first arrival — and nothing per call: the 63 waiters are released through
// one shared callback, not a closure each. Differencing two run lengths
// cancels the world's setup; the bound's slack is for a stray runtime
// object in a thousand collectives (a closure per waiter and a grown list
// read 71).
func TestAllreduceAllocsPerCollective(t *testing.T) {
	const ranks, short, long = 64, 50, 550
	total := func(rounds int) float64 {
		return testing.AllocsPerRun(1, func() {
			var comm *Comm
			w := NewWorld(DefaultConfig(), Program{Name: "app", Procs: ranks, Main: func(r *Rank) {
				for i := 0; i < rounds; i++ {
					r.Allreduce(comm, 8)
				}
			}})
			comm = w.NewComm(w.ProgramRanks(0))
			if err := w.Run(); err != nil {
				t.Error(err)
			}
		})
	}
	if per := (total(long) - total(short)) / (long - short); per > 2.1 {
		t.Errorf("a warm %d-rank Allreduce allocates %.2f objects per collective, want 2", ranks, per)
	}
}
