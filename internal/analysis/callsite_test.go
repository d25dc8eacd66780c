package analysis

import (
	"testing"

	"repro/internal/blackboard"
	"repro/internal/trace"
)

func TestCallsiteAggregation(t *testing.T) {
	m := NewCallsiteModule()
	m.Label(1, "copy_faces")
	m.Label(2, "x_solve")
	add := func(ctx uint32, kind trace.Kind, dur int64) {
		m.Add(&trace.Event{Kind: kind, Ctx: ctx, Size: 10, TStart: 0, TEnd: dur})
	}
	add(1, trace.KindIsend, 5)
	add(1, trace.KindIsend, 5)
	add(1, trace.KindWaitall, 100)
	add(2, trace.KindWaitall, 400)
	add(3, trace.KindBarrier, 50) // unlabeled context

	top := m.AppendTop(nil, 0)
	if len(top) != 4 {
		t.Fatalf("rows = %d", len(top))
	}
	if top[0].Label != "x_solve" || top[0].Stat.TimeNs != 400 {
		t.Fatalf("top row = %+v", top[0])
	}
	if top[1].Label != "copy_faces" || top[1].Kind != trace.KindWaitall {
		t.Fatalf("second row = %+v", top[1])
	}
	// Time ordering: 400, 100, 50 (unlabeled ctx 3), 10.
	if top[2].Label != "" || top[2].Ctx != 3 {
		t.Fatalf("unlabeled row = %+v", top[2])
	}
	if got := m.AppendTop(nil, 2); len(got) != 2 {
		t.Fatalf("Top(2) = %d rows", len(got))
	}
}

func TestCallsiteMerge(t *testing.T) {
	a, b := NewCallsiteModule(), NewCallsiteModule()
	a.Label(1, "phase-a")
	b.Label(2, "phase-b")
	ev1 := trace.Event{Kind: trace.KindSend, Ctx: 1, Size: 5, TEnd: 10}
	ev2 := trace.Event{Kind: trace.KindSend, Ctx: 2, Size: 7, TEnd: 20}
	a.Add(&ev1)
	b.Add(&ev1)
	b.Add(&ev2)
	a.Merge(b)
	top := a.AppendTop(nil, 0)
	if len(top) != 2 {
		t.Fatalf("rows = %d", len(top))
	}
	// ctx 1 accumulated 10+10 ns across the two modules, ctx 2 has 20 ns:
	// tied on time, ordered by ctx.
	if top[0].Stat.TimeNs != 20 || top[0].Ctx != 1 {
		t.Fatalf("top = %+v", top)
	}
	for _, row := range top {
		switch row.Ctx {
		case 1:
			if row.Stat.Hits != 2 || row.Label != "phase-a" {
				t.Fatalf("ctx1 = %+v", row)
			}
		case 2:
			if row.Stat.Hits != 1 || row.Label != "phase-b" {
				t.Fatalf("ctx2 = %+v", row)
			}
		}
	}
}

func TestPipelineEnableCallsites(t *testing.T) {
	bb := blackboard.New(blackboard.Config{Workers: 2})
	defer bb.Close()
	p, err := NewPipeline(bb, "app", 2)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := p.EnableCallsites()
	if err != nil {
		t.Fatal(err)
	}
	ev := trace.Event{Kind: trace.KindSend, Rank: 0, Peer: 1, Ctx: 9, Size: 64, TStart: 0, TEnd: 3}
	p.PostPack(buildPack(0, 0, ev))
	bb.Drain()
	top := cs.AppendTop(nil, 0)
	if len(top) != 1 || top[0].Ctx != 9 || top[0].Stat.Bytes != 64 {
		t.Fatalf("top = %+v", top)
	}
}
