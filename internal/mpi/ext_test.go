package mpi

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/des"
)

// MPI calls no workload or example issues — MPI_Waitany and persistent
// requests. They are kept, with their tests, out of the runtime's surface:
// a workload that needs one moves it back to ext.go.

// Waitany blocks until at least one of the requests completes and returns
// its index (like MPI_Waitany). Completed-and-consumed requests must not
// be passed again.
func (r *Rank) Waitany(reqs []*Request) int {
	r.overhead()
	if len(reqs) == 0 {
		panic("mpi: Waitany with no requests")
	}
	for {
		seq := r.ArrivalSeq()
		earliest, at := -1, des.Time(0)
		for i, req := range reqs {
			if req == nil || req.waited {
				continue
			}
			if req.rank != r {
				panic("mpi: Waitany on a request owned by another rank")
			}
			if req.isSend {
				// Send requests complete at injection; pick the soonest.
				if earliest < 0 || req.doneAt < at {
					earliest, at = i, req.doneAt
				}
				continue
			}
			if req.matched != nil || r.tryMatch(req) {
				req.waited = true
				return i
			}
		}
		if earliest >= 0 {
			req := reqs[earliest]
			if req.doneAt > r.Now() {
				r.proc.SleepUntil(req.doneAt)
			}
			req.waited = true
			return earliest
		}
		r.WaitArrival(seq, "waitany")
	}
}

// PersistentRequest is a reusable communication descriptor, like the
// handles created by MPI_Send_init / MPI_Recv_init; the NAS solvers set
// these up once and Start them every iteration.
type PersistentRequest struct {
	rank    *Rank
	comm    *Comm
	isSend  bool
	peer    int
	tag     int
	size    int64
	payload []byte
}

// SendInit creates a persistent send descriptor.
func (r *Rank) SendInit(c *Comm, dst, tag int, size int64, payload []byte) *PersistentRequest {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: SendInit to invalid rank %d of comm size %d", dst, c.Size()))
	}
	return &PersistentRequest{rank: r, comm: c, isSend: true, peer: dst, tag: tag, size: size, payload: payload}
}

// RecvInit creates a persistent receive descriptor.
func (r *Rank) RecvInit(c *Comm, src, tag int) *PersistentRequest {
	return &PersistentRequest{rank: r, comm: c, peer: src, tag: tag}
}

// Start activates the persistent request and returns the live request to
// wait on, like MPI_Start.
func (p *PersistentRequest) Start() *Request {
	req := new(Request)
	if p.isSend {
		p.rank.IsendInto(req, p.comm, p.peer, p.tag, p.size, p.payload)
	} else {
		p.rank.IrecvInto(req, p.comm, p.peer, p.tag)
	}
	return req
}

// Startall activates several persistent requests (MPI_Startall).
func Startall(ps []*PersistentRequest) []*Request {
	out := make([]*Request, len(ps))
	for i, p := range ps {
		out[i] = p.Start()
	}
	return out
}

func TestSplitByColor(t *testing.T) {
	// 8 ranks split into even/odd colors; each sub-communicator runs a
	// collective and a ring exchange.
	sizes := make([]int, 8)
	locals := make([]int, 8)
	runSPMD(t, 8, func(r *Rank) {
		c := r.World().Universe()
		me := r.Global()
		sub := r.Split(c, me%2, me)
		if sub == nil {
			t.Error("nil subcommunicator")
			return
		}
		sizes[me] = sub.Size()
		locals[me] = sub.LocalOf(me)
		r.Allreduce(sub, 8)
		next := (sub.LocalOf(me) + 1) % sub.Size()
		prev := (sub.LocalOf(me) + sub.Size() - 1) % sub.Size()
		sendRecv(r, sub, next, prev, 16)
	})
	for me, sz := range sizes {
		if sz != 4 {
			t.Fatalf("rank %d sub size = %d", me, sz)
		}
		if want := me / 2; locals[me] != want {
			t.Fatalf("rank %d local = %d, want %d", me, locals[me], want)
		}
	}
}

func TestSplitKeyOrdering(t *testing.T) {
	// Keys reverse the order within the new communicator.
	locals := make([]int, 4)
	runSPMD(t, 4, func(r *Rank) {
		c := r.World().Universe()
		me := r.Global()
		sub := r.Split(c, 0, -me) // descending keys
		locals[me] = sub.LocalOf(me)
	})
	for me, l := range locals {
		if want := 3 - me; l != want {
			t.Fatalf("rank %d local = %d, want %d", me, l, want)
		}
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	var nilCount int
	runSPMD(t, 4, func(r *Rank) {
		c := r.World().Universe()
		me := r.Global()
		color := 0
		if me == 3 {
			color = -1 // MPI_UNDEFINED
		}
		sub := r.Split(c, color, me)
		if me == 3 {
			if sub == nil {
				nilCount++
			}
		} else if sub == nil || sub.Size() != 3 {
			t.Errorf("rank %d sub wrong", me)
		}
	})
	if nilCount != 1 {
		t.Fatal("undefined color should yield nil")
	}
}

func TestSplitIsSynchronizing(t *testing.T) {
	var after [4]float64
	runSPMD(t, 4, func(r *Rank) {
		c := r.World().Universe()
		me := r.Global()
		r.Compute(time.Duration(me) * 10 * time.Millisecond)
		r.Split(c, 0, me)
		after[me] = r.Now().Seconds()
	})
	for me, v := range after {
		if v < 0.030 {
			t.Fatalf("rank %d left split at %v, before slowest arrival", me, v)
		}
	}
}

func TestSplitDistinctCallsDistinctComms(t *testing.T) {
	// Two consecutive splits produce independent communicators.
	var first, second *Comm
	runSPMD(t, 4, func(r *Rank) {
		c := r.World().Universe()
		me := r.Global()
		a := r.Split(c, 0, me)
		b := r.Split(c, me%2, me)
		if me == 0 {
			first, second = a, b
		}
	})
	if first == nil || second == nil || first.ID() == second.ID() {
		t.Fatal("split results should be distinct communicators")
	}
	if first.Size() != 4 || second.Size() != 2 {
		t.Fatalf("sizes: %d, %d", first.Size(), second.Size())
	}
}

func TestWaitanyReturnsFirstCompletion(t *testing.T) {
	runSPMD(t, 3, func(r *Rank) {
		c := r.World().Universe()
		switch r.Global() {
		case 0:
			// Two receives: rank 2 sends much later than rank 1.
			fast := irecv(r, c, 1, 0)
			slow := irecv(r, c, 2, 0)
			i := r.Waitany([]*Request{slow, fast})
			if i != 1 {
				t.Errorf("first completion = %d, want the fast recv", i)
			}
			j := r.Waitany([]*Request{slow, fast})
			if j != 0 {
				t.Errorf("second completion = %d", j)
			}
		case 1:
			r.Send(c, 0, 0, 10, nil)
		case 2:
			r.Compute(50 * time.Millisecond)
			r.Send(c, 0, 0, 20, nil)
		}
	})
}

func TestWaitanyWithSends(t *testing.T) {
	runSPMD(t, 2, func(r *Rank) {
		c := r.World().Universe()
		if r.Global() == 0 {
			s1 := isend(r, c, 1, 0, 1<<20)
			s2 := isend(r, c, 1, 1, 1)
			// Both are sends; Waitany picks the earliest injection.
			i := r.Waitany([]*Request{s1, s2})
			_ = i
			j := r.Waitany([]*Request{s1, s2})
			if i == j {
				t.Error("Waitany returned the same request twice")
			}
		} else {
			r.Recv(c, 0, 0)
			r.Recv(c, 0, 1)
		}
	})
}

func TestPersistentRequests(t *testing.T) {
	const iters = 5
	var got []int64
	runSPMD(t, 2, func(r *Rank) {
		c := r.World().Universe()
		switch r.Global() {
		case 0:
			ps := r.SendInit(c, 1, 7, 64, nil)
			for i := 0; i < iters; i++ {
				r.Waitall([]*Request{ps.Start()})
			}
		case 1:
			pr := r.RecvInit(c, 0, 7)
			for i := 0; i < iters; i++ {
				reqs := Startall([]*PersistentRequest{pr})
				r.Waitall(reqs)
				got = append(got, reqs[0].Status.Size)
			}
		}
	})
	if len(got) != iters {
		t.Fatalf("received %d messages", len(got))
	}
	for _, sz := range got {
		if sz != 64 {
			t.Fatalf("sizes = %v", got)
		}
	}
}

func TestSendInitValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid SendInit accepted")
		}
	}()
	w := NewWorld(DefaultConfig(), Program{Name: "a", Procs: 1, Main: func(r *Rank) {
		r.SendInit(r.World().Universe(), 5, 0, 1, nil)
	}})
	_ = w.Run()
}
