package analysis

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

// fusedWorkload builds a deterministic mixed-kind event stream for one
// rank — enough variety to exercise every default module.
func fusedWorkload(rank int32, n int) []trace.Event {
	rng := rand.New(rand.NewSource(int64(rank)*7919 + 17))
	evs := make([]trace.Event, 0, n)
	t := int64(rank)
	for i := 0; i < n; i++ {
		t += int64(rng.Intn(50)) + 1
		ev := trace.Event{Rank: rank, Peer: (rank + 1) % 4, Tag: int32(i % 3),
			Ctx: uint32(i % 5), TStart: t, TEnd: t + int64(rng.Intn(30)) + 1}
		switch i % 4 {
		case 0:
			ev.Kind, ev.Size = trace.KindSend, int64(rng.Intn(4096))
		case 1:
			ev.Kind, ev.Size = trace.KindRecv, int64(rng.Intn(4096))
		case 2:
			ev.Kind, ev.Peer = trace.KindBarrier, -1
		default:
			ev.Kind, ev.Size = trace.KindIsend, int64(rng.Intn(512))
		}
		t = ev.TEnd
		evs = append(evs, ev)
	}
	return evs
}

// packStreamV3 encodes one rank's events as an ordered v3 pack sequence.
func packStreamV3(appID uint32, rank int32, evs []trace.Event) [][]byte {
	b := trace.NewPackBuilderV3(appID, rank, 48, 1<<11)
	var packs [][]byte
	for i := range evs {
		if b.Add(&evs[i]) {
			packs = append(packs, b.Take())
		}
	}
	if last := b.Take(); last != nil {
		packs = append(packs, last)
	}
	return packs
}

// TestFusedIngestMatchesBoardPath runs the same workload through the v3
// fused path and the v2 board path and requires identical module results —
// the fused-dispatch invariant the golden fingerprints rely on.
func TestFusedIngestMatchesBoardPath(t *testing.T) {
	const ranks, perRank = 4, 300
	run := func(t *testing.T, fused bool) *Pipeline {
		bb := newBoard(t)
		d, err := NewDispatcher(bb)
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.AddApp(7, "app", ranks)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.EnableTemporal(100); err != nil {
			t.Fatal(err)
		}
		if _, err := p.EnableCallsites(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.EnableSizes(); err != nil {
			t.Fatal(err)
		}
		fi := NewFusedIngest(d)
		for r := int32(0); r < ranks; r++ {
			evs := fusedWorkload(r, perRank)
			if fused {
				for _, pk := range packStreamV3(7, r, evs) {
					consumed, err := fi.Absorb(int(r), pk)
					if err != nil {
						t.Fatal(err)
					}
					if !consumed {
						t.Fatal("v3 pack not consumed by fused path")
					}
				}
			} else {
				b := trace.NewPackBuilderV2(7, r, 48, 1<<11)
				for i := range evs {
					if b.Add(&evs[i]) {
						d.PostRaw(b.Take())
					}
				}
				if last := b.Take(); last != nil {
					d.PostRaw(last)
				}
			}
		}
		// The fused path folds on the caller's goroutine: its events are in
		// before the board drains.
		if fused && p.Profiler.Events() != ranks*perRank {
			t.Fatalf("fused events = %d, want %d", p.Profiler.Events(), ranks*perRank)
		}
		bb.Drain()
		return p
	}
	pf := run(t, true)
	pb := run(t, false)

	if pf.Profiler.Events() != pb.Profiler.Events() {
		t.Fatalf("events: fused=%d board=%d", pf.Profiler.Events(), pb.Profiler.Events())
	}
	for _, k := range []trace.Kind{trace.KindSend, trace.KindRecv, trace.KindIsend, trace.KindBarrier} {
		if sf, sb := pf.Profiler.Stat(k), pb.Profiler.Stat(k); sf != sb {
			t.Fatalf("kind %v: fused=%+v board=%+v", k, sf, sb)
		}
	}
	if ef, eb := pf.Topology.AppendEdges(nil), pb.Topology.AppendEdges(nil); !slices.Equal(ef, eb) {
		t.Fatalf("topology: fused=%+v board=%+v", ef, eb)
	}
	hf, hb := pf.state.Sizes.AppendHistogram(nil), pb.state.Sizes.AppendHistogram(nil)
	if len(hf) != len(hb) {
		t.Fatalf("size histogram rows: fused=%d board=%d", len(hf), len(hb))
	}
	for i := range hf {
		if hf[i] != hb[i] {
			t.Fatalf("size bucket %d: fused=%+v board=%+v", i, hf[i], hb[i])
		}
	}
	tfp, tbp := pf.state.Callsites.AppendTop(nil, 0), pb.state.Callsites.AppendTop(nil, 0)
	if len(tfp) != len(tbp) {
		t.Fatalf("callsite rows: fused=%d board=%d", len(tfp), len(tbp))
	}
	for i := range tfp {
		if tfp[i] != tbp[i] {
			t.Fatalf("callsite row %d: fused=%+v board=%+v", i, tfp[i], tbp[i])
		}
	}
}

// TestFusedIngestRoutesLegacyToBoard checks v1/v2 packs pass through
// Absorb to the blackboard untouched.
func TestFusedIngestRoutesLegacyToBoard(t *testing.T) {
	bb := newBoard(t)
	d, err := NewDispatcher(bb)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.AddApp(1, "app", 2)
	if err != nil {
		t.Fatal(err)
	}
	fi := NewFusedIngest(d)
	v2 := trace.NewPackBuilderV2(1, 0, 48, 1<<16)
	v2.Add(&trace.Event{Kind: trace.KindSend, Rank: 0, Peer: 1, Size: 64, TStart: 0, TEnd: 1})
	consumed, err := fi.Absorb(0, v2.Take())
	if err != nil {
		t.Fatal(err)
	}
	if consumed {
		t.Fatal("v2 pack must go to the board, not the fused path")
	}
	consumed, err = fi.Absorb(1, buildPack(1, 1, sendEvent(1, 0, 32, 0, 1)))
	if err != nil || consumed {
		t.Fatalf("v1 pack: consumed=%v err=%v", consumed, err)
	}
	bb.Drain()
	if p.Profiler.Events() != 2 {
		t.Fatalf("board path lost events: %d", p.Profiler.Events())
	}
}

// TestV3PackOnBoardFailsLoud: a v3 pack routed through PostRaw (instead
// of FusedIngest) must be rejected by the board's fold before it decodes
// an event, not silently misdecoded — the worker pool cannot guarantee
// per-writer order — and the worker's decoder then folds a v1 pack.
func TestV3PackOnBoardFailsLoud(t *testing.T) {
	bb := newBoard(t)
	d, err := NewDispatcher(bb)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.AddApp(3, "app", 2)
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewPackBuilderV3(3, 0, 48, 1<<16)
	b.Add(&trace.Event{Kind: trace.KindSend, Rank: 0, Peer: 1, Size: 8, TStart: 0, TEnd: 1})
	d.PostRaw(b.Take())
	bb.Drain()
	if got := bb.Stats().OpPanics; got != 1 {
		t.Fatalf("panics = %d, want the v3-on-board rejection", got)
	}
	if p.Profiler.Events() != 0 {
		t.Fatalf("misrouted v3 pack was decoded anyway: events = %d", p.Profiler.Events())
	}
	d.PostRaw(buildPack(3, 0, sendEvent(0, 1, 8, 0, 1)))
	bb.Drain()
	if p.Profiler.Events() != 1 {
		t.Fatalf("a v1 pack after the refusal folded %d events, want 1", p.Profiler.Events())
	}
}

// TestFusedIngestUnknownApp: a v3 pack for an unregistered app errors at
// ingest instead of reaching the board.
func TestFusedIngestUnknownApp(t *testing.T) {
	bb := newBoard(t)
	d, err := NewDispatcher(bb)
	if err != nil {
		t.Fatal(err)
	}
	fi := NewFusedIngest(d)
	b := trace.NewPackBuilderV3(42, 0, 48, 1<<16)
	b.Add(&trace.Event{Kind: trace.KindSend, Rank: 0, Peer: 1, Size: 8, TStart: 0, TEnd: 1})
	if _, err := fi.Absorb(0, b.Take()); err == nil || !strings.Contains(err.Error(), "unregistered app") {
		t.Fatalf("err = %v", err)
	}
}

// TestFoldPackZeroAllocs guards the fused hot path end to end: once the
// modules have seen the stream's kinds, ranks and call sites, folding a
// 256-event v3 pack — decode loop, per-pack locking, state fold —
// allocates nothing.
func TestFoldPackZeroAllocs(t *testing.T) {
	d, err := NewDispatcher(newBoard(t))
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.AddApp(7, "app", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableTemporal(100); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableCallsites(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableSizes(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableWindows(1000, 0); err != nil {
		t.Fatal(err)
	}
	b := trace.NewPackBuilderV3(7, 0, 48, trace.PackHeaderSize+256*48)
	var packs [][]byte
	for _, ev := range fusedWorkload(0, 512) {
		if b.Add(&ev) {
			packs = append(packs, b.Take())
		}
	}
	if h, err := trace.PeekHeader(packs[1]); err != nil || h.Count != 256 {
		t.Fatalf("second pack: %+v, %v", h, err)
	}
	var dec trace.StreamDecoder
	for _, pk := range packs {
		if _, err := p.FoldPack(&dec, pk); err != nil {
			t.Fatal(err)
		}
	}
	// The second pack's dictionary delta is empty, so it decodes again and
	// again against the same stream state.
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := p.FoldPack(&dec, packs[1]); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm FoldPack of a 256-event pack allocates %.1f, want 0", allocs)
	}
}
