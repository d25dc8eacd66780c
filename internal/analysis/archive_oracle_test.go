package analysis_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/serviced"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestPartialOracleArchive is TestPartialOracle's archive leg: every tenth
// of its 1 000 runs, windows on, is written as the archive of its session —
// the Register frame naming the run's own app size and modules, the packs
// of one source per rank in the v1, v2 or v3 format, round robin — and
// replayed post-mortem in a daemon session (serviced.Daemon.Replay, what
// profiler -trace runs). The replayed chapter must hold the reference's
// values at that size, the generator's rank outside the app staying
// outside it, and its window series the window reference's.
func TestPartialOracleArchive(t *testing.T) {
	for seed := int64(0); seed < 1000; seed += 10 {
		_, perRank, opts, want := analysis.PartialOracleRun(seed)
		version := []int{trace.PackV1, trace.PackV2, trace.PackV3}[seed/10%3]
		var b bytes.Buffer
		frame := func(typ byte, p []byte, err error) {
			if err == nil {
				err = wire.WriteFrame(&b, typ, p)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		frame(wire.TypeHello, wire.EncodeHello(wire.Hello{Proto: wire.ProtoVersion, MaxFormat: byte(version)}), nil)
		reg, err := wire.EncodeSessionMeta(wire.SessionMeta{
			Title: "oracle", Apps: []wire.AppMeta{{Name: "app", Procs: opts.AppSize, AppID: 1}},
			WaitState: opts.WaitState, TemporalWindowNs: opts.TemporalWindowNs, Callsites: opts.Callsites,
			Sizes: opts.Sizes, WindowNs: opts.WindowNs,
		})
		frame(wire.TypeRegister, reg, err)
		packs := analysis.OraclePacks(t, version, perRank, 1+int(seed)%7)
		for i, more := 0, true; more; i++ {
			more = false
			for r := range packs {
				if i < len(packs[r]) {
					frame(wire.TypePack, wire.EncodePack(uint32(r), packs[r][i]), nil)
					more = true
				}
			}
		}
		cm, err := wire.EncodeCloseMeta(wire.CloseMeta{Apps: []wire.AppFinal{{}}})
		frame(wire.TypeClose, cm, err)
		rep, err := serviced.New(serviced.Options{}).Replay(&b)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ch := rep.Chapters[0]
		if ch.Procs != opts.AppSize {
			t.Fatalf("seed %d: the replay sized the app at %d ranks, the run at %d", seed, ch.Procs, opts.AppSize)
		}
		if got := analysis.EngineProfile(chapterPartial(ch)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (v%d packs): the replayed chapter disagrees with the reference: %s",
				seed, version, analysis.ProfileDiff(got, want))
		}
		var evs []trace.Event
		for _, seq := range perRank {
			evs = append(evs, seq...)
		}
		if diff := analysis.WindowOracleDiff(ch.WaitState, ch.Windows, evs, opts.AppSize); diff != "" {
			t.Fatalf("seed %d (v%d packs, window %d): the replayed series disagrees with the reference: %s",
				seed, version, opts.WindowNs, diff)
		}
	}
}

// chapterPartial gathers a chapter's module sections into the partial the
// reference reads them from.
func chapterPartial(ch *report.Chapter) *analysis.Partial {
	return &analysis.Partial{Profiler: ch.Profiler, Topology: ch.Topology, Density: ch.Density,
		Waits: ch.WaitState, Temporal: ch.Temporal, Callsites: ch.Callsites, Sizes: ch.Sizes}
}
