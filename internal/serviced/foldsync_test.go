package serviced

import (
	"testing"

	"repro/internal/adapt"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestSyncFoldZeroAllocs guards the daemon's synchronous ingest: on a
// warm session, decoding one 256-event v3 pack through its writer's
// decoder, past the admission gate and into the delta allocates nothing —
// and takes no lock, the delta being the connection goroutine's own.
func TestSyncFoldZeroAllocs(t *testing.T) {
	gov, err := newGovernor(adapt.Config{}, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	meta := wire.SessionMeta{Title: "t", Callsites: true, Sizes: true, TemporalWindowNs: 1000,
		Apps: []wire.AppMeta{{AppID: 3, Name: "app", Procs: 4}}}
	s, err := newSession(1, trace.PackV3, meta, gov, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
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
}
