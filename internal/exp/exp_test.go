package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/exp/runner"
	"repro/internal/nas"
	"repro/internal/trace"
)

func TestReadersFormula(t *testing.T) {
	cases := []struct{ w, r, want int }{
		{2560, 1, 2560}, {2560, 25, 102}, {2560, 32, 80}, {10, 64, 1}, {3, 2, 1},
	}
	for _, c := range cases {
		if got := Readers(c.w, c.r); got != c.want {
			t.Fatalf("Readers(%d,%d) = %d, want %d", c.w, c.r, got, c.want)
		}
	}
}

func TestPlatformConfig(t *testing.T) {
	p := Tera100()
	cfg := p.MPIConfig(2560)
	if cfg.Net.CoresPerNode != 32 {
		t.Fatalf("cores/node = %d", cfg.Net.CoresPerNode)
	}
	// 80 nodes × 0.85 GB/s = 68 GB/s bisection for the allocation.
	if cfg.Net.BisectionBandwidth != 0.85e9*80 {
		t.Fatalf("bisection = %g", cfg.Net.BisectionBandwidth)
	}
	// FS prorated: 500 GB/s × 2560/140000 ≈ 9.1 GB/s (the paper's figure).
	if fs := p.FSShare(2560); fs < 9.0e9 || fs > 9.2e9 {
		t.Fatalf("FS share = %g, want ≈9.1 GB/s", fs)
	}
	// Large allocations hit the job cap.
	if cfg2 := p.MPIConfig(100000); cfg2.FS.AggregateBandwidth != p.JobFSCap {
		t.Fatalf("job FS cap not applied: %g", cfg2.FS.AggregateBandwidth)
	}
}

func TestPlatformByName(t *testing.T) {
	for _, name := range []string{"tera100", "Tera-100", "TERA", "curie", "Curie"} {
		if _, err := PlatformByName(name); err != nil {
			t.Fatalf("PlatformByName(%q): %v", name, err)
		}
	}
	if _, err := PlatformByName("summit"); err == nil {
		t.Fatal("unknown platform accepted")
	}
	p, _ := PlatformByName("curie")
	if p.Name != "Curie" {
		t.Fatalf("name = %s", p.Name)
	}
}

func TestStreamThroughputGrowsWithWriters(t *testing.T) {
	p := Tera100()
	small, err := StreamThroughput(p, 32, 1, 8<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	big, err := StreamThroughput(p, 128, 1, 8<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if big.Throughput <= small.Throughput {
		t.Fatalf("throughput should grow with writers: %g vs %g", small.Throughput, big.Throughput)
	}
	if big.Readers != 128 || small.Ratio != 1 {
		t.Fatalf("point metadata wrong: %+v", big)
	}
}

func TestStreamThroughputDecaysWithRatio(t *testing.T) {
	p := Tera100()
	var prev float64
	for i, ratio := range []int{1, 8, 32} {
		pt, err := StreamThroughput(p, 128, ratio, 8<<20, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && pt.Throughput >= prev {
			t.Fatalf("throughput should decay with ratio: ratio=%d gave %g >= %g", ratio, pt.Throughput, prev)
		}
		prev = pt.Throughput
	}
}

func TestStreamBeatsFSShareAtLowRatio(t *testing.T) {
	p := Tera100()
	pt, err := StreamThroughput(p, 256, 1, 8<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Throughput <= pt.FSShare {
		t.Fatalf("at ratio 1 streams must beat the FS share: %g vs %g", pt.Throughput, pt.FSShare)
	}
	// At an extreme ratio, one reader node cannot match the FS share of
	// 256 writer cores... it can actually; check monotone fall instead.
	hi, err := StreamThroughput(p, 256, 256, 8<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if hi.Throughput >= pt.Throughput {
		t.Fatal("single reader should be far slower than 1:1")
	}
}

func TestStreamSweepSkipsOversizedRatios(t *testing.T) {
	p := Tera100()
	pts, err := StreamSweepJ(p, []int{4}, []int{1, 2, 8}, 2<<20, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 { // ratio 8 > 4 writers skipped
		t.Fatalf("points = %d", len(pts))
	}
	var buf bytes.Buffer
	WriteStreamTable(&buf, pts)
	if !strings.Contains(buf.String(), "Figure 14") {
		t.Fatal("table header missing")
	}
}

func TestOverheadOnlinePositiveAndBounded(t *testing.T) {
	p := Tera100()
	w, err := nas.SP(nas.ClassC, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := MeasureOverhead(p, w, ToolOnline, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pt.OverheadPct <= 0 {
		t.Fatalf("online overhead should be positive, got %.3f%%", pt.OverheadPct)
	}
	if pt.OverheadPct > 25 {
		t.Fatalf("online overhead should stay below 25%%, got %.2f%%", pt.OverheadPct)
	}
	if pt.Events == 0 || pt.DataBytes == 0 || pt.Bi == 0 {
		t.Fatalf("missing accounting: %+v", pt)
	}
	// Data volume: events × 256 B plus pack headers.
	if pt.DataBytes < pt.Events*EventRecordSize {
		t.Fatalf("data bytes %d below event payload %d", pt.DataBytes, pt.Events*EventRecordSize)
	}
}

func TestOverheadClassCAboveClassD(t *testing.T) {
	p := Tera100()
	measure := func(class nas.Class) OverheadPoint {
		w, err := nas.SP(class, 256, 4)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := MeasureOverhead(p, w, ToolOnline, 1)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	c, d := measure(nas.ClassC), measure(nas.ClassD)
	if c.OverheadPct <= d.OverheadPct {
		t.Fatalf("class C overhead (%.2f%%) should exceed class D (%.2f%%)", c.OverheadPct, d.OverheadPct)
	}
	if c.Bi <= d.Bi {
		t.Fatalf("Bi(C)=%g should exceed Bi(D)=%g", c.Bi, d.Bi)
	}
}

func TestToolOrdering(t *testing.T) {
	// At a scale where the FS job cap binds, the trace tool must cost more
	// than the online coupling, which must cost more than the local
	// profile; the reference has zero overhead by construction.
	p := Tera100()
	w, err := nas.SP(nas.ClassC, 256, 6)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runReferenceSeed(p, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	get := func(tool Tool) OverheadPoint {
		pt, err := MeasureOverheadWithRef(p, w, tool, 1, ref)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	refPt := get(ToolReference)
	prof := get(ToolScorePProfile)
	online := get(ToolOnline)
	if refPt.OverheadPct != 0 {
		t.Fatalf("reference overhead = %f", refPt.OverheadPct)
	}
	if prof.OverheadPct >= online.OverheadPct {
		t.Fatalf("profile (%.3f%%) should undercut online (%.3f%%)", prof.OverheadPct, online.OverheadPct)
	}
	// Online produces much more data than the 80-byte trace records, yet
	// the paper's point is it still beats the trace tool at scale — that
	// assertion lives in the Figure 16 bench where the scale is larger.
	trace := get(ToolScorePTrace)
	if trace.DataBytes == 0 {
		t.Fatal("trace tool produced no data")
	}
	if online.DataBytes <= trace.DataBytes {
		t.Fatalf("online volume (%d) should exceed trace volume (%d)", online.DataBytes, trace.DataBytes)
	}
}

func TestFig15SweepShape(t *testing.T) {
	p := Tera100()
	grid := Fig15Grid([]Fig15Case{{"SP", nas.ClassC}, {"LU", nas.ClassC}}, []int{16, 64}, 3)
	pts, err := runner.Run(len(grid), 1, func(i int) (OverheadPoint, error) {
		return MeasureOverheadAvg(p, grid[i], ToolOnline, 1, 3, trace.PackV1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		// The paper's Figure 15 axis spans -5..30 %; small configurations
		// sit in the synchronization-noise band around zero.
		if pt.OverheadPct < -5 || pt.OverheadPct > 30 {
			t.Fatalf("overhead out of the paper's envelope: %+v", pt)
		}
		if pt.Tool != ToolOnline || pt.Ratio != 1 {
			t.Fatalf("wrong tool config: %+v", pt)
		}
	}
	var buf bytes.Buffer
	WriteOverheadTable(&buf, "Figure 15", pts)
	if !strings.Contains(buf.String(), "SP.C") || !strings.Contains(buf.String(), "LU.C") {
		t.Fatal("table missing series")
	}
}

func TestFig16SweepContainsAllTools(t *testing.T) {
	p := Curie()
	pts, err := Fig16SweepJ(p, []int{64}, 3, 1, trace.PackV1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(Tools()) {
		t.Fatalf("points = %d", len(pts))
	}
	seen := map[Tool]bool{}
	for _, pt := range pts {
		seen[pt.Tool] = true
		if pt.Bench != "SP.D" {
			t.Fatalf("bench = %s", pt.Bench)
		}
	}
	if len(seen) != len(Tools()) {
		t.Fatalf("tools covered: %v", seen)
	}
}

func TestProfileRunMultiApp(t *testing.T) {
	p := Tera100()
	lu, err := nas.LU(nas.ClassC, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := nas.CG(nas.ClassC, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ProfileRun(p, []*nas.Workload{lu, cg}, ProfileOptions{Analyzers: 2, Workers: 4, PackBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Chapters) != 2 {
		t.Fatalf("chapters = %d", len(rep.Chapters))
	}
	luCh, cgCh := rep.Chapters[0], rep.Chapters[1]
	if luCh.App != "LU.C" || cgCh.App != "CG.C" {
		t.Fatalf("chapter order: %s, %s", luCh.App, cgCh.App)
	}
	// Both pipelines must have received events (concurrent profiling).
	if luCh.Profiler.Events() == 0 || cgCh.Profiler.Events() == 0 {
		t.Fatalf("events: LU=%d CG=%d", luCh.Profiler.Events(), cgCh.Profiler.Events())
	}
	// LU on a 4x4 mesh: interior rank degree 4, corner degree 2.
	if _, deg := topologyCells(luCh.Topology); deg[5] != 4 || deg[0] != 2 {
		t.Fatalf("LU degrees: interior=%d corner=%d", deg[5], deg[0])
	}
	// CG keeps its banded edges separated from LU's mesh (level isolation).
	if cells, _ := topologyCells(cgCh.Topology); cells[[2]int{0, 1}].Hits == 0 {
		t.Fatal("CG ladder edge missing")
	}
	// The report renders with both chapters.
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "chapter 1: LU.C") || !strings.Contains(out, "chapter 2: CG.C") {
		t.Fatalf("render missing chapters:\n%s", out[:200])
	}
	// Wall times are real simulation times.
	if luCh.WallTime <= 0 || cgCh.WallTime <= 0 {
		t.Fatal("wall times missing")
	}
	_ = trace.KindSend
}

// TestProfileRunAdaptive arms the overload controller on an unloaded run:
// it completes with a full report and an all-zero loss ledger (the idle
// controller sheds nothing).
func TestProfileRunAdaptive(t *testing.T) {
	lu, err := nas.LU(nas.ClassC, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ProfileRun(Tera100(), []*nas.Workload{lu}, ProfileOptions{Analyzers: 2, Workers: 2, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Chapters) != 1 || rep.Chapters[0].Profiler.Events() == 0 {
		t.Fatalf("chapters = %d", len(rep.Chapters))
	}
	for _, row := range rep.StreamLoss {
		if row.Shed != 0 || row.Dropped != 0 || row.LostInFlight != 0 {
			t.Fatalf("idle adaptive run lost events: %+v", row)
		}
	}
	for _, ch := range rep.Chapters {
		if ch.Completeness != nil && !ch.Completeness.Empty() {
			t.Fatalf("chapter %s advertises loss on an unloaded run", ch.App)
		}
	}
}

// TestOverloadSweepGolden pins the adaptive point of a small overload
// sweep, on the options of the figure table's overload entry at 8
// timesteps: how high the controller climbed, how many decisions it took,
// what it shed per class and what the application paid for it. Every
// point conserves the unloaded run's events (analyzed + shed) and loses
// no stream block.
func TestOverloadSweepGolden(t *testing.T) {
	const want = "level 4 decisions 18 app-sec 1.736807865 shed MPI_Send:2486 MPI_Recv:2486 MPI_Isend:336 MPI_Irecv:336 MPI_Waitall:112"
	lu, err := nas.LU(nas.ClassA, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := OverloadSweep(Tera100(), []*nas.Workload{lu}, ProfileOptions{
		Workers:          2,
		PackBytes:        8192,
		TelemetryPeriod:  50 * time.Millisecond,
		BacklogHighBytes: 64 << 10,
	}, 200<<10)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if sum := pt.AnalyzedEvents + pt.ShedEvents; sum != pts[0].AnalyzedEvents {
			t.Errorf("%s: analyzed %d + shed %d = %d, want the unloaded run's %d",
				pt.Mode, pt.AnalyzedEvents, pt.ShedEvents, sum, pts[0].AnalyzedEvents)
		}
		for _, row := range pt.Report.StreamLoss {
			if row.Dropped != 0 || row.LostInFlight != 0 {
				t.Errorf("%s: %s rank %d dropped %d blocks, lost %d in flight", pt.Mode, row.App, row.Rank, row.Dropped, row.LostInFlight)
			}
		}
	}
	ap := pts[len(pts)-1]
	got := fmt.Sprintf("level %d decisions %d app-sec %v shed", ap.AdaptMaxLevel, ap.AdaptDecisions, ap.AppSeconds)
	comp := ap.Report.Chapters[0].Completeness
	for _, k := range comp.AppendKinds(nil) {
		got += fmt.Sprintf(" %s:%d", k, comp.Stat(k).Shed)
	}
	if got != want {
		t.Fatalf("adaptive point\n got %s\nwant %s", got, want)
	}
}

func TestStreamDeterminism(t *testing.T) {
	p := Tera100()
	run := func() float64 {
		pt, err := StreamThroughput(p, 16, 4, 4<<20, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return pt.Throughput
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %g vs %g", a, b)
	}
}

func TestMeasureOverheadAvgAverages(t *testing.T) {
	p := Tera100()
	w, err := nas.SP(nas.ClassC, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := MeasureOverheadAvg(p, w, ToolOnline, 1, 3, trace.PackV1)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Bench != "SP.C" || avg.Procs != 64 || avg.Tool != ToolOnline {
		t.Fatalf("metadata = %+v", avg)
	}
	if avg.RefSeconds <= 0 || avg.Seconds <= 0 || avg.Events == 0 {
		t.Fatalf("missing values: %+v", avg)
	}
	// Averaging must be deterministic.
	avg2, err := MeasureOverheadAvg(p, w, ToolOnline, 1, 3, trace.PackV1)
	if err != nil {
		t.Fatal(err)
	}
	if avg.OverheadPct != avg2.OverheadPct {
		t.Fatalf("non-deterministic averages: %v vs %v", avg.OverheadPct, avg2.OverheadPct)
	}
}

func TestJitterSeedChangesTiming(t *testing.T) {
	p := Tera100()
	w, err := nas.SP(nas.ClassC, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := runReferenceSeed(p, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runReferenceSeed(p, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different seeds should draw different jitter realizations")
	}
	// but stay within the jitter amplitude of each other.
	if diff := (a - b) / a; diff > 0.02 || diff < -0.02 {
		t.Fatalf("seeds diverge too much: %v vs %v", a, b)
	}
}

func TestFig15CasesMatchPaper(t *testing.T) {
	cases := Fig15Cases()
	if len(cases) != 9 {
		t.Fatalf("cases = %d", len(cases))
	}
	seen := map[string]bool{}
	for _, c := range cases {
		seen[c.Kind+string(c.Class)] = true
	}
	for _, want := range []string{"BTC", "BTD", "CGC", "FTC", "LUC", "LUD", "SPC", "SPD"} {
		if !seen[want] {
			t.Fatalf("missing paper series %s", want)
		}
	}
	if !seen["EulerMHD\x00"] {
		t.Fatal("missing EulerMHD")
	}
}

func TestProfileRunWithAllModules(t *testing.T) {
	p := Tera100()
	w, err := nas.SP(nas.ClassC, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ProfileRun(p, []*nas.Workload{w}, ProfileOptions{
		Analyzers:        1,
		Workers:          2,
		WaitState:        true,
		TemporalWindowNs: 1e7,
		Callsites:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := rep.Chapters[0]
	if ch.WaitState == nil || ch.Temporal == nil || ch.Callsites == nil {
		t.Fatal("optional modules missing from the chapter")
	}
	if ch.Temporal.Buckets() == 0 {
		t.Fatal("temporal module empty")
	}
	if len(ch.Callsites.AppendTop(nil, 0)) == 0 {
		t.Fatal("callsite module empty")
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Top call sites", "Temporal map", "Wait-state analysis"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	var tex bytes.Buffer
	if err := rep.RenderLaTeX(&tex); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tex.String(), "Wait-state analysis") {
		t.Fatal("latex missing wait-state section")
	}
}
