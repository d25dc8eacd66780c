package serviced

import (
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/trace"
)

// closedReport stands in for a closed session's report: one chapter per
// app, each with events events and one second of wall time.
func closedReport(events int, apps ...string) *report.Report {
	rep := &report.Report{}
	for _, app := range apps {
		p := &analysis.ProfilerModule{}
		for i := 0; i < events; i++ {
			p.Add(&trace.Event{Kind: trace.KindSend})
		}
		rep.Chapters = append(rep.Chapters, &report.Chapter{App: app, WallTime: time.Second, Profiler: p})
	}
	return rep
}

func TestSubmitAccumulates(t *testing.T) {
	h := history{cap: historyCap}
	h.record(closedReport(3, "LU.C"))
	h.record(closedReport(5, "CG.C", "LU.C"))
	st := h.status()
	if st.Stats.Jobs != 2 || st.Stats.Applications != 3 || st.Stats.Events != 3+2*5 || st.Stats.AppSeconds != 3 {
		t.Fatalf("stats = %+v", st.Stats)
	}
	want := []BenchCount{{"CG.C", 1}, {"LU.C", 2}}
	if len(st.Stats.PerBenchmark) != 2 || st.Stats.PerBenchmark[0] != want[0] || st.Stats.PerBenchmark[1] != want[1] {
		t.Fatalf("per-benchmark = %+v, want %+v", st.Stats.PerBenchmark, want)
	}
	if len(st.History) != 2 || st.History[0].ID != 1 || st.History[1].ID != 2 || st.HistoryEvicted != 0 {
		t.Fatalf("history = %+v evicted %d", st.History, st.HistoryEvicted)
	}
	if r := st.History[1]; len(r.Apps) != 2 || r.Apps[0] != "CG.C" || r.Events != 10 || r.AppSeconds != 2 {
		t.Fatalf("second row = %+v", r)
	}
}

func TestHistoryRingBounded(t *testing.T) {
	h := history{cap: 2}
	for i := 0; i < 5; i++ {
		h.record(closedReport(1, "LU.C"))
	}
	st := h.status()
	if len(st.History) != 2 || st.History[0].ID != 4 || st.History[1].ID != 5 {
		t.Fatalf("history = %+v, want the two most recent rows", st.History)
	}
	if st.HistoryEvicted != 3 {
		t.Fatalf("evicted = %d, want 3", st.HistoryEvicted)
	}
	// Cumulative stats are not affected by eviction.
	if st.Stats.Jobs != 5 || st.Stats.Events != 5 || st.Stats.PerBenchmark[0].Count != 5 {
		t.Fatalf("stats = %+v", st.Stats)
	}
}

func TestHistoryCapOne(t *testing.T) {
	// A cap of 1 degenerates the ring to "latest row only": every close
	// evicts its predecessor, and IDs stay dense across evictions.
	h := history{cap: 1}
	for i := 0; i < 3; i++ {
		h.record(closedReport(1, "EP.C"))
		if st := h.status(); len(st.History) != 1 || st.History[0].ID != i+1 || st.HistoryEvicted != i {
			t.Fatalf("after close %d: history = %+v evicted %d", i+1, st.History, st.HistoryEvicted)
		}
	}
	if st := h.status(); st.Stats.Jobs != 3 {
		t.Fatalf("stats.Jobs = %d, want 3 (eviction must not touch totals)", st.Stats.Jobs)
	}
}
