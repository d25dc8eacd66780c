package serviced

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestSyncFoldZeroAllocs guards the daemon's synchronous ingest: on a
// warm session, decoding one 256-event v3 pack through its writer's
// decoder, past the admission gate and into the delta allocates nothing —
// and takes no lock, the delta being the connection goroutine's own.
func TestSyncFoldZeroAllocs(t *testing.T) {
	syncFoldZeroAllocs(t, wire.SessionMeta{Title: "t", Callsites: true, Sizes: true, TemporalWindowNs: 1000,
		Apps: []wire.AppMeta{{AppID: 3, Name: "app", Procs: 4}}})
}

// TestSyncFoldWindowedZeroAllocs is TestSyncFoldZeroAllocs on a windowed
// session: the window series and the lateness tracker, whose tally the
// pack commits, add no allocation either.
func TestSyncFoldWindowedZeroAllocs(t *testing.T) {
	syncFoldZeroAllocs(t, wire.SessionMeta{Title: "t", Callsites: true, Sizes: true, TemporalWindowNs: 1000,
		WindowNs: 2000, WindowGraceNs: 500, Apps: []wire.AppMeta{{AppID: 3, Name: "app", Procs: 4}}})
}

// TestSyncFoldWaitStateZeroAllocs is TestSyncFoldWindowedZeroAllocs with
// wait-state on and a pack of sends and the receives they pair with: the
// settle at the pack's end pairs every channel the pack touched and
// credits the pairs to their windows, allocating nothing either.
func TestSyncFoldWaitStateZeroAllocs(t *testing.T) {
	syncFoldZeroAllocs(t, wire.SessionMeta{Title: "t", WaitState: true, WindowNs: 2000, WindowGraceNs: 500,
		Apps: []wire.AppMeta{{AppID: 3, Name: "app", Procs: 4}}})
}

// foldPacks builds two 256-event packs of one writer over four ranks: each
// a call to the next rank, or, with pairs set, alternately a send and the
// receive that completes it (the receive starting 50 ns early).
func foldPacks(pairs bool) [][]byte {
	b := trace.NewPackBuilderV3(3, 0, 48, trace.PackHeaderSize+256*48)
	var packs [][]byte
	for i := 0; len(packs) < 2; i++ {
		ev := trace.Event{Kind: trace.KindIsend, Rank: int32(i % 4), Peer: int32((i + 1) % 4), Tag: 1,
			Ctx: uint32(i % 5), Size: 1 << 12, TStart: int64(i) * 100, TEnd: int64(i)*100 + 40}
		if pairs {
			src := int32(i / 2 % 4)
			ev.Rank, ev.Peer = src, (src+1)%4
			if i%2 == 1 {
				ev.Kind, ev.Rank, ev.Peer, ev.TStart = trace.KindRecv, ev.Peer, ev.Rank, ev.TStart-150
			}
		}
		if b.Add(&ev) {
			packs = append(packs, b.Take())
		}
	}
	return packs
}

func syncFoldZeroAllocs(t *testing.T, meta wire.SessionMeta) {
	s := newSession(1, trace.PackV3, meta, newGovernor(0, 0, 0), 1)
	defer s.shutdown()
	packs := foldPacks(meta.WaitState)
	app := s.byID[3]
	for _, pk := range packs {
		if err := s.foldSync(0, app, pk); err != nil {
			t.Fatal(err)
		}
	}
	// The second pack's dictionary delta is empty: it decodes again and
	// again against the same stream state.
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.foldSync(0, app, packs[1]); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("synchronous fold of a 256-event pack allocates %.1f, want 0", allocs)
	}
	if got, want := s.events.Load(), int64(256*(2+51)); got != want {
		t.Errorf("session counted %d admitted events, want %d", got, want)
	}
	if w := app.delta.Partial().Waits; w != nil && (w.Pairs() != 128*(2+51) || w.Unmatched() != 0) {
		t.Errorf("the folds paired %d and left %d unmatched, want %d and 0", w.Pairs(), w.Unmatched(), 128*(2+51))
	}
	if tr := app.tracker; tr != nil && tr.Events() != s.events.Load() {
		t.Errorf("the tracker counted %d events, the session %d", tr.Events(), s.events.Load())
	}
}

// TestLaneTrackersMatchSync: the ingest lanes each commit their own tally
// into the app's one tracker, and the tracker ends where the synchronous
// session's does — events, late events, windows and the worst window. One
// writer's packs run a window ahead; the other's, sent after a flush, are
// all late behind them on both paths.
func TestLaneTrackersMatchSync(t *testing.T) {
	meta := wire.SessionMeta{Title: "t", WindowNs: 10_000, WindowGraceNs: 1000,
		Apps: []wire.AppMeta{{AppID: 3, Name: "app", Procs: 4}}}
	packs := func(writer int32, from int64) [][]byte {
		b := trace.NewPackBuilderV3(3, writer, 48, trace.PackHeaderSize+64*48)
		var out [][]byte
		for i := int64(0); i < 500; i++ {
			ev := trace.Event{Kind: trace.KindSend, Rank: writer, Peer: 1 - writer, Size: 64,
				TStart: from + i*97, TEnd: from + i*97 + 30}
			if b.Add(&ev) {
				out = append(out, b.Take())
			}
		}
		return append(out, b.Take())
	}
	ahead, behind := packs(0, 60_000), packs(1, 0)
	totals := func(workers int) [5]any {
		s := newSession(1, trace.PackV3, meta, newGovernor(0, 0, 0), workers)
		defer s.shutdown()
		for phase, ps := range [][][]byte{ahead, behind} {
			for _, pk := range ps {
				if err := s.ingest(uint32(phase), pk); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.flushLanes(); err != nil {
				t.Fatal(err)
			}
		}
		tr := s.apps[0].tracker
		idx, c, _ := tr.WorstWindow()
		return [5]any{tr.Events(), tr.LateEvents(), tr.WindowsObserved(), idx, c}
	}
	want, got := totals(1), totals(2)
	if want[0] != int64(1000) || want[1] != int64(500) {
		t.Fatalf("synchronous tracker: %v events and late, want 1000 and 500", want[:2])
	}
	if got != want {
		t.Errorf("two lanes' tracker (events, late, windows, worst window, its bound) = %v, synchronous %v", got, want)
	}
}

// TestLaneGateLedger: two lanes admit through one shedding gate, each
// deciding a pack through a tally of its own and committing it once per
// pack. The session's governor climbs the whole ladder as the packs come,
// so the classes go from open to sampled to closed while the lanes fold.
// After the flush barrier, for every class, kept + shed is what was sent
// and kept is what was folded.
func TestLaneGateLedger(t *testing.T) {
	meta := wire.SessionMeta{Title: "t", Apps: []wire.AppMeta{{AppID: 3, Name: "app", Procs: 4}}}
	s := newSession(1, trace.PackV3, meta, newGovernor(1, 0, 1), 2)
	defer s.shutdown()
	kinds := []trace.Kind{trace.KindSend, trace.KindRecv, trace.KindIsend, trace.KindWait,
		trace.KindAllreduce, trace.KindPosixWrite}
	sent := map[trace.Kind]int64{}
	builders := []trace.Builder{trace.NewPackBuilderV3(3, 0, 48, trace.PackHeaderSize+64*48),
		trace.NewPackBuilderV3(3, 1, 48, trace.PackHeaderSize+64*48)}
	ingest := func(src int, pack []byte) {
		if err := s.ingest(uint32(src), pack); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20_000; i++ {
		src := i % 2
		ev := trace.Event{Kind: kinds[i*7%len(kinds)], Rank: int32(src), Peer: int32(1 - src), Size: 64,
			TStart: int64(i) * 10, TEnd: int64(i)*10 + 5}
		sent[ev.Kind]++
		if builders[src].Add(&ev) {
			ingest(src, builders[src].Take())
		}
	}
	for src, b := range builders {
		if pack := b.Take(); pack != nil {
			ingest(src, pack)
		}
	}
	if err := s.flushLanes(); err != nil {
		t.Fatal(err)
	}
	app := s.apps[0]
	folded := map[trace.Kind]int64{}
	for _, ks := range app.delta.Partial().Profiler.AppendStats(nil) {
		folded[ks.Kind] = ks.Stat.Hits
	}
	ledger := map[trace.Kind]trace.AuditEntry{}
	for _, e := range app.gate.Entries() {
		ledger[e.Kind] = e
	}
	for _, k := range kinds {
		if e := ledger[k]; e.Kept+e.Shed != sent[k] || e.Kept != folded[k] {
			t.Errorf("%s: %d kept + %d shed of %d sent; %d folded", k, e.Kept, e.Shed, sent[k], folded[k])
		}
	}
	if s.gov.maxLevel() != 4 || app.gate.TotalShed() == 0 {
		t.Errorf("the governor reached level %d and the gate shed %d: no shedding to account for",
			s.gov.maxLevel(), app.gate.TotalShed())
	}
}

// chanPack packs evs as writer's one pack of app 3.
func chanPack(writer int32, evs ...trace.Event) []byte {
	b := trace.NewPackBuilderV3(3, writer, 48, trace.PackHeaderSize+64*48)
	for i := range evs {
		b.Add(&evs[i])
	}
	return b.Take()
}

// chanSend and chanRecv are the two sides of one channel, rank 0 to rank 1.
func chanSend(t int64) trace.Event {
	return trace.Event{Kind: trace.KindSend, Rank: 0, Peer: 1, Size: 8, TStart: t, TEnd: t + 5}
}

func chanRecv(t, end int64) trace.Event {
	return trace.Event{Kind: trace.KindRecv, Rank: 1, Peer: 0, Size: 8, TStart: t, TEnd: end}
}

type writerPack struct {
	writer uint32
	pack   []byte
}

// pollRun ingests packs into a wait-state session of the given worker
// count, polling Diff after each pack whose index poll returns true, and
// returns the final Snapshot's partial and the rendered close report.
func pollRun(t *testing.T, workers int, packs []writerPack, poll func(i int) bool) (snap []byte, rendered string) {
	t.Helper()
	meta := wire.SessionMeta{Title: "t", WaitState: true, Apps: []wire.AppMeta{{AppID: 3, Name: "app", Procs: 2}}}
	s := newSession(1, trace.PackV3, meta, newGovernor(0, 0, 0), workers)
	defer s.shutdown()
	cursor := uint64(0)
	for i, p := range packs {
		if err := s.ingest(p.writer, p.pack); err != nil {
			t.Fatal(err)
		}
		if poll(i) {
			st, err := s.diff(cursor)
			if err != nil {
				t.Fatal(err)
			}
			cursor = st.To
		}
	}
	st, err := s.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.close(wire.CloseMeta{Apps: []wire.AppFinal{{}}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return st.Apps[0], buf.String()
}

// TestSyncResultIndependentOfPolling: one channel whose sends reach the
// daemon out of time order across packs — a send at t=100, then receives
// at 60 and 120, then a send at 50. The synchronous path pairs what each
// pack completed at the pack's end, so a client that polls Diff after
// every pack and one that never polls get byte-identical final Snapshots
// and reports. Pairing at the seal alone made the answer follow the polls.
// The input breaks the per-rank time order the pairing assumes (rank 0
// sends at 100, then at 50), so the test checks only that the answer does
// not depend on the polls, not which pairs it holds: the whole-run
// reference, which sorts each side by time, would pair 60 with 50.
// The lane path still depends on the cadence for such input: a lane
// replica does not settle at a pack's end (TestLanePairsAcrossSeals), so
// its channels pair only at a seal, when the replicas merge into the delta.
func TestSyncResultIndependentOfPolling(t *testing.T) {
	packs := []writerPack{{0, chanPack(0, chanSend(100))}, {1, chanPack(1, chanRecv(60, 110), chanRecv(120, 130))},
		{0, chanPack(0, chanSend(50))}}
	polledSnap, polledRep := pollRun(t, 1, packs, func(int) bool { return true })
	snap, rendered := pollRun(t, 1, packs, func(int) bool { return false })
	if !bytes.Equal(polledSnap, snap) {
		t.Errorf("the final Snapshot differs between polling after every pack and never polling")
	}
	if polledRep != rendered {
		t.Errorf("the final report differs between polling after every pack and never polling:\n%s\nvs\n%s", polledRep, rendered)
	}
	pp, err := analysis.DecodePartial(snap)
	if err != nil {
		t.Fatal(err)
	}
	if pairs := pp.Waits.Pairs(); pairs != 2 {
		t.Errorf("the Snapshot holds %d pairs, want 2", pairs)
	}
}

// TestLanePairsAcrossSeals: writers 0 (rank 0's sends) and 2 (rank 1's
// receives) share lane 0 of a two-worker session. A send at 10, a Diff,
// then its receive at 20 and a later send at 40. The seal hands the
// lane's pending send to the delta, so the receive must pair there with
// the send at 10 (no wait), not in the lane with the send at 40 (a late
// sender that did not happen). A lane replica must therefore not settle
// at a pack's end; the synchronous session and a never-polled one agree.
func TestLanePairsAcrossSeals(t *testing.T) {
	packs := []writerPack{{0, chanPack(0, chanSend(10))}, {2, chanPack(2, chanRecv(20, 30))}, {0, chanPack(0, chanSend(40))}}
	for _, tc := range []struct {
		workers int
		poll    bool
	}{{2, true}, {2, false}, {1, true}, {1, false}} {
		snap, _ := pollRun(t, tc.workers, packs, func(i int) bool { return tc.poll && i == 0 })
		pp, err := analysis.DecodePartial(snap)
		if err != nil {
			t.Fatal(err)
		}
		if pairs, late := pp.Waits.Pairs(), pp.Waits.TotalLateNs(); pairs != 1 || late != 0 {
			t.Errorf("%d workers, Diff after the first send %v: %d pairs waiting %d ns, want 1 and 0 ns",
				tc.workers, tc.poll, pairs, late)
		}
	}
}
