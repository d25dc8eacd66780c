package exp

import (
	"fmt"
	"io"

	"repro/internal/nas"
	"repro/internal/report"
)

// OverloadPoint is one run of the sustained-overload experiment: the
// same workload profiled unloaded (analyzer at the calibrated rate),
// statically overloaded (analyzer throttled, pure back-pressure) and
// adaptively overloaded (same throttle, closed-loop controller engaged).
type OverloadPoint struct {
	// Mode is "unloaded", "static" or "adaptive".
	Mode string
	// RunStats is the run's measurements; its shed events and controller
	// activity are zero unless adaptive.
	*RunStats
	// OverheadX is AppSeconds over the sweep's unloaded baseline (1.0 for
	// the baseline itself).
	OverheadX float64
	// CompletenessPct is the advertised completeness
	// 100 x analyzed/(analyzed+shed) — what the report's completeness
	// section guarantees (100 when nothing was shed).
	CompletenessPct float64
	// Report gives callers the full run output for deeper assertions
	// (per-class completeness, loss ledgers).
	Report *report.Report
}

// OverloadSweep profiles the workloads three ways on a pinned platform:
// unloaded at the calibrated analyzer rate, then twice with the analyzer
// partition throttled to slowRate bytes/second — once static (the engine
// can only push back on the application) and once adaptive (the
// controller sheds load with a quantified completeness bound instead).
// The first point is always the unloaded baseline.
//
// This is the experiment behind the adaptive engine's acceptance gate: a
// throttle that stalls the static engine's application by multiples must
// leave the adaptive engine's overhead near the unloaded baseline, with
// every shed event accounted per class in the report.
func OverloadSweep(p Platform, workloads []*nas.Workload, base ProfileOptions, slowRate float64) ([]OverloadPoint, error) {
	if slowRate <= 0 || slowRate >= AnalyzerByteRate {
		return nil, fmt.Errorf("exp: overload sweep needs a throttle below the calibrated rate %g, got %g", float64(AnalyzerByteRate), slowRate)
	}
	run := func(mode string, opts ProfileOptions) (OverloadPoint, error) {
		// All three runs carry telemetry so their transport is comparable;
		// the adaptive run needs it anyway.
		opts.Telemetry = true
		rep, stats, err := ProfileRunStats(p, workloads, opts)
		if err != nil {
			return OverloadPoint{}, fmt.Errorf("exp: overload %s run: %w", mode, err)
		}
		pt := OverloadPoint{Mode: mode, RunStats: stats, CompletenessPct: 100, Report: rep}
		if total := pt.AnalyzedEvents + pt.ShedEvents; total > 0 {
			pt.CompletenessPct = 100 * float64(pt.AnalyzedEvents) / float64(total)
		}
		return pt, nil
	}

	unloaded, err := run("unloaded", base)
	if err != nil {
		return nil, err
	}
	unloaded.OverheadX = 1

	static := base
	static.AnalyzerByteRate = slowRate
	sp, err := run("static", static)
	if err != nil {
		return nil, err
	}

	adaptive := static
	adaptive.Adaptive = true
	ap, err := run("adaptive", adaptive)
	if err != nil {
		return nil, err
	}

	points := []OverloadPoint{unloaded, sp, ap}
	for i := 1; i < len(points); i++ {
		if unloaded.AppSeconds > 0 {
			points[i].OverheadX = points[i].AppSeconds / unloaded.AppSeconds
		}
	}
	return points, nil
}

// WriteOverloadTable prints an overload sweep, one mode per row.
func WriteOverloadTable(w io.Writer, points []OverloadPoint) {
	fmt.Fprintf(w, "%-10s %9s %9s %12s %12s %13s %6s %10s\n",
		"mode", "app-sec", "overhead", "analyzed", "shed", "completeness", "level", "decisions")
	for _, pt := range points {
		fmt.Fprintf(w, "%-10s %9.3f %8.2fx %12d %12d %12.2f%% %6d %10d\n",
			pt.Mode, pt.AppSeconds, pt.OverheadX, pt.AnalyzedEvents, pt.ShedEvents,
			pt.CompletenessPct, pt.AdaptMaxLevel, pt.AdaptDecisions)
	}
}
