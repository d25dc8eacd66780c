package serviced

import (
	"testing"

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

func syncFoldZeroAllocs(t *testing.T, meta wire.SessionMeta) {
	s := newSession(1, trace.PackV3, meta, newGovernor(0, 0, 0), 1)
	defer s.shutdown()
	b := trace.NewPackBuilderV3(3, 0, 48, trace.PackHeaderSize+256*48)
	var packs [][]byte
	for i := 0; len(packs) < 2; i++ {
		ev := trace.Event{Kind: trace.KindIsend, Rank: int32(i % 4), Peer: int32((i + 1) % 4), Tag: 1,
			Ctx: uint32(i % 5), Size: 1 << 12, TStart: int64(i) * 100, TEnd: int64(i)*100 + 40}
		if b.Add(&ev) {
			packs = append(packs, b.Take())
		}
	}
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
