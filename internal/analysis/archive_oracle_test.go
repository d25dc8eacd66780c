package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/exp"
	"repro/internal/otf2lite"
	"repro/internal/report"
	"repro/internal/trace"
)

// TestPartialOracleArchive is TestPartialOracle's archive leg: every tenth
// of its 1 000 runs, without its windows (a replay takes none), is written
// as an otf2lite archive and analysed post-mortem by exp.ReplayArchive
// with the run's module selection. The replayed chapter must hold the
// reference's values. The archive's ranks define the app, so the rank the
// generator puts outside the run's app is inside the replayed one: the
// reference is taken over the same events at the chapter's size.
func TestPartialOracleArchive(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(0); seed < 1000; seed += 10 {
		_, perRank, opts, _ := analysis.PartialOracleRun(seed)
		w := otf2lite.NewWriter()
		var evs []trace.Event
		for _, seq := range perRank {
			for i := range seq {
				w.Add(&seq[i])
			}
			evs = append(evs, seq...)
		}
		path := filepath.Join(dir, fmt.Sprintf("run%d.o2l", seed))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Finish(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		rep, err := exp.ReplayArchive(path, exp.ProfileOptions{Workers: 2, WaitState: opts.WaitState,
			TemporalWindowNs: opts.TemporalWindowNs, Callsites: opts.Callsites, Sizes: opts.Sizes})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ch := rep.Chapters[0]
		if ch.Procs != opts.AppSize+1 {
			t.Fatalf("seed %d: the replay sized the app at %d ranks, the archive holds %d", seed, ch.Procs, opts.AppSize+1)
		}
		want := analysis.RefProfileOf(evs, ch.Procs, opts.TemporalWindowNs)
		if got := analysis.EngineProfile(chapterPartial(ch)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the replayed chapter disagrees with the reference: %s", seed, analysis.ProfileDiff(got, want))
		}
	}
}

// chapterPartial gathers a chapter's module sections into the partial the
// reference reads them from.
func chapterPartial(ch *report.Chapter) *analysis.Partial {
	return &analysis.Partial{Profiler: ch.Profiler, Topology: ch.Topology, Density: ch.Density,
		Temporal: ch.Temporal, Callsites: ch.Callsites, Sizes: ch.Sizes}
}
