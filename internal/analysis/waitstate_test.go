package analysis

import (
	"testing"
	"testing/quick"

	"repro/internal/blackboard"
	"repro/internal/trace"
)

func sendAt(src, dst int32, tag int32, t0 int64) trace.Event {
	return trace.Event{Kind: trace.KindSend, Rank: src, Peer: dst, Tag: tag, Size: 100, TStart: t0, TEnd: t0 + 1}
}

func recvAt(dst, src int32, tag int32, t0, t1 int64) trace.Event {
	return trace.Event{Kind: trace.KindRecv, Rank: dst, Peer: src, Tag: tag, Size: 100, TStart: t0, TEnd: t1}
}

func TestLateSenderDetected(t *testing.T) {
	m := NewWaitStateModule(2)
	// Receiver posts at t=0, sender starts at t=100, recv completes t=150:
	// 100 ns of late-sender wait at rank 1.
	ev := recvAt(1, 0, 7, 0, 150)
	m.Add(&ev)
	ev = sendAt(0, 1, 7, 100)
	m.Add(&ev)
	if m.Pairs() != 1 {
		t.Fatalf("pairs = %d", m.Pairs())
	}
	if got := m.LateSenderMap(); got[1] != 100 || got[0] != 0 {
		t.Fatalf("late map = %v", got)
	}
	if hits := m.LateSenderHits(); hits[1] != 1 {
		t.Fatalf("hits = %v", hits)
	}
	if m.TotalLateNs() != 100 {
		t.Fatalf("total = %d", m.TotalLateNs())
	}
}

func TestEarlySenderIsNotLate(t *testing.T) {
	m := NewWaitStateModule(2)
	// Send starts before the receive: no wait state, either arrival order.
	ev := sendAt(0, 1, 0, 10)
	m.Add(&ev)
	ev = recvAt(1, 0, 0, 50, 60)
	m.Add(&ev)
	if m.TotalLateNs() != 0 || m.Pairs() != 1 {
		t.Fatalf("total = %d pairs = %d", m.TotalLateNs(), m.Pairs())
	}
}

func TestWaitCappedByRecvDuration(t *testing.T) {
	m := NewWaitStateModule(2)
	// Send "starts" after the recv completed (clock granularity):
	// attributed wait is capped at the recv's own duration.
	ev := recvAt(1, 0, 0, 0, 30)
	m.Add(&ev)
	ev = sendAt(0, 1, 0, 1000)
	m.Add(&ev)
	if got := m.LateSenderMap(); got[1] != 30 {
		t.Fatalf("late map = %v", got)
	}
}

func TestFIFOMatchingPerChannel(t *testing.T) {
	m := NewWaitStateModule(2)
	// Two sends then two recvs on one channel: pair in order.
	ev := sendAt(0, 1, 0, 100)
	m.Add(&ev)
	ev = sendAt(0, 1, 0, 300)
	m.Add(&ev)
	ev = recvAt(1, 0, 0, 0, 150) // pairs with send@100: 100ns late
	m.Add(&ev)
	ev = recvAt(1, 0, 0, 200, 350) // pairs with send@300: 100ns late
	m.Add(&ev)
	if m.Pairs() != 2 {
		t.Fatalf("pairs = %d", m.Pairs())
	}
	if got := m.LateSenderMap(); got[1] != 200 {
		t.Fatalf("late map = %v", got)
	}
	if m.Unmatched() != 0 {
		t.Fatalf("unmatched = %d", m.Unmatched())
	}
}

func TestChannelsAreIndependent(t *testing.T) {
	m := NewWaitStateModule(3)
	// Different tags must not cross-match.
	ev := recvAt(1, 0, 1, 0, 100)
	m.Add(&ev)
	ev = sendAt(0, 1, 2, 50)
	m.Add(&ev)
	if m.Pairs() != 0 || m.Unmatched() != 2 {
		t.Fatalf("pairs = %d unmatched = %d", m.Pairs(), m.Unmatched())
	}
	// Different peers must not cross-match either.
	ev = sendAt(2, 1, 1, 50)
	m.Add(&ev)
	if m.Pairs() != 0 {
		t.Fatal("peer mismatch paired")
	}
}

func TestWildcardAndCollectiveEventsIgnored(t *testing.T) {
	m := NewWaitStateModule(2)
	evs := []trace.Event{
		{Kind: trace.KindRecv, Rank: 1, Peer: -1, Tag: 0, TStart: 0, TEnd: 10},
		{Kind: trace.KindWait, Rank: 1, Peer: 0, Tag: -1, TStart: 0, TEnd: 10},
		{Kind: trace.KindBarrier, Rank: 0, Peer: -1},
		{Kind: trace.KindIsend, Rank: 0, Peer: -1},
	}
	for i := range evs {
		m.Add(&evs[i])
	}
	if m.Pairs() != 0 || m.Unmatched() != 0 {
		t.Fatalf("pairs = %d unmatched = %d", m.Pairs(), m.Unmatched())
	}
}

func TestWaitStateMerge(t *testing.T) {
	a, b := NewWaitStateModule(2), NewWaitStateModule(2)
	for _, m := range []*WaitStateModule{a, b} {
		ev := recvAt(1, 0, 0, 0, 100)
		m.Add(&ev)
		ev = sendAt(0, 1, 0, 60)
		m.Add(&ev)
	}
	a.Merge(b)
	if a.TotalLateNs() != 120 || a.Pairs() != 2 {
		t.Fatalf("merged: total = %d pairs = %d", a.TotalLateNs(), a.Pairs())
	}
}

func TestPipelineWaitState(t *testing.T) {
	bb := blackboard.New(blackboard.Config{Workers: 2})
	defer bb.Close()
	p, err := NewPipeline(bb, "app", 2)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := p.EnableWaitState()
	if err != nil {
		t.Fatal(err)
	}
	p.PostPack(buildPack(0, 0, sendAt(0, 1, 5, 500)))
	p.PostPack(buildPack(0, 1, recvAt(1, 0, 5, 100, 600)))
	bb.Drain()
	if ws.Pairs() != 1 {
		t.Fatalf("pairs = %d", ws.Pairs())
	}
	if got := ws.LateSenderMap(); got[1] != 400 {
		t.Fatalf("late map = %v", got)
	}
}

// Property: total late-sender time never exceeds the sum of receive
// durations, and pairs + unmatched equals the number of eligible events /
// well-formed halves.
func TestWaitStateConservationProperty(t *testing.T) {
	f := func(starts []uint16) bool {
		m := NewWaitStateModule(2)
		var recvDur int64
		n := len(starts) / 2
		for i := 0; i < n; i++ {
			s0 := int64(starts[2*i])
			r0 := int64(starts[2*i+1])
			rev := recvAt(1, 0, 0, r0, r0+50)
			sev := sendAt(0, 1, 0, s0)
			if i%2 == 0 {
				m.Add(&rev)
				m.Add(&sev)
			} else {
				m.Add(&sev)
				m.Add(&rev)
			}
			recvDur += 50
		}
		if m.Pairs() != int64(n) || m.Unmatched() != 0 {
			return false
		}
		return m.TotalLateNs() <= recvDur
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWaitStateSteadyStateAllocsIndependentOfEvents guards the channel
// records: on a warm 256-rank partial, a fold → Flush(false) epoch pairs
// and drains every queue, and the next epoch's events must land in the
// capacity the drained ones left behind — so what a cycle allocates does
// not depend on how many events it folds.
func TestWaitStateSteadyStateAllocsIndependentOfEvents(t *testing.T) {
	const ranks = 256
	cycleAllocs := func(perChannel int) float64 {
		pp := NewPartial(1, PartialOptions{AppSize: ranks, WaitState: true})
		var buf []byte
		now := int64(0)
		cycle := func() {
			for i := 0; i < perChannel; i++ {
				for r := int32(0); r < ranks; r++ {
					now += 10
					send := sendAt(r, (r+1)%ranks, 0, now)
					recv := recvAt((r+1)%ranks, r, 0, now-5, now+5)
					pp.AddEvent(&send)
					pp.AddEvent(&recv)
				}
			}
			buf = pp.Flush(buf[:0], false)
		}
		cycle()
		cycle()
		if pp.Waits.Unmatched() != 0 {
			t.Fatalf("%d events left unmatched", pp.Waits.Unmatched())
		}
		return testing.AllocsPerRun(5, cycle)
	}
	few, many := cycleAllocs(2), cycleAllocs(8)
	t.Logf("allocs per fold→Flush cycle: %.0f at 1 024 events, %.0f at 4 096", few, many)
	if many != few {
		t.Errorf("a cycle of 4× the events allocates %.0f instead of %.0f: queues are being re-grown per event", many, few)
	}
}
