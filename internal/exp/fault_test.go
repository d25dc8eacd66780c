package exp

import (
	"strings"
	"testing"

	"repro/internal/nas"
)

func TestFaultSweepSingleAnalyzerLossBounded(t *testing.T) {
	// The headline robustness claim: losing one analyzer of the analysis
	// partition mid-run must not take the application down or stall it —
	// traffic fails over to the survivor and the slowdown stays bounded.
	p := Tera100()
	w, err := nas.SP(nas.ClassC, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := FaultSweepJ(p, w, 8, []float64{0.5}, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	pt := pts[0]
	if pt.Analyzers != 2 || pt.Killed != 1 {
		t.Fatalf("shape = %d analyzers, %d killed", pt.Analyzers, pt.Killed)
	}
	if pt.Seconds <= 0 {
		t.Fatal("faulty run did not complete")
	}
	if pt.Quarantines == 0 || pt.Failovers == 0 {
		t.Fatalf("point = %+v, want quarantines and failovers after the crash", pt)
	}
	if pt.FellBack != 0 {
		t.Fatalf("%d ranks fell back despite a surviving analyzer", pt.FellBack)
	}
	// Bounded degradation: a single-analyzer loss costs less than twice
	// the healthy coupling overhead.
	if pt.SlowdownVsHealthy >= 2 {
		t.Fatalf("slowdown vs healthy = %.2f, want < 2", pt.SlowdownVsHealthy)
	}
	// The survivor absorbs most of the stream: only in-flight blocks to
	// the dead analyzer are written off.
	if pt.CompletenessPct < 50 {
		t.Fatalf("completeness = %.1f%%, want most data still analyzed", pt.CompletenessPct)
	}
}

func TestFaultSweepTotalAnalyzerLossFallsBack(t *testing.T) {
	// Losing the whole analysis partition: the application must finish
	// (dropping blocks, reducing locally), with partial completeness.
	p := Tera100()
	w, err := nas.SP(nas.ClassC, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := FaultSweepJ(p, w, 8, []float64{0.5}, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[0]
	if pt.Seconds <= 0 {
		t.Fatal("faulty run did not complete")
	}
	if pt.FellBack == 0 {
		t.Fatal("no rank fell back to local profiling with every analyzer dead")
	}
	if pt.BlocksDropped == 0 {
		t.Fatal("no blocks counted as dropped")
	}
	if pt.CompletenessPct >= 100 {
		t.Fatalf("completeness = %.1f%%, want partial", pt.CompletenessPct)
	}
	if pt.SlowdownVsHealthy >= 2 {
		t.Fatalf("slowdown vs healthy = %.2f, want < 2 (drops are cheaper than streaming)", pt.SlowdownVsHealthy)
	}
}

func TestWriteFaultTable(t *testing.T) {
	var sb strings.Builder
	WriteFaultTable(&sb, "fault sweep", []FaultPoint{{
		Bench: "SP.C", Procs: 16, Ratio: 8, Analyzers: 2, Killed: 1,
		FailFrac: 0.5, RefSeconds: 1, HealthySeconds: 1.1, Seconds: 1.12,
		OverheadPct: 12, SlowdownVsHealthy: 1.2, CompletenessPct: 91.5,
		Failovers: 40, Quarantines: 16, BlocksDropped: 3, FellBack: 0,
	}})
	out := sb.String()
	for _, want := range []string{"fault sweep", "SP.C", "91.5", "slowdown"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
