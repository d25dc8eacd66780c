package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/des"
	"repro/internal/exp/runner"
	"repro/internal/nas"
	"repro/internal/trace"
)

// FaultPoint is one measurement of the online coupling under analyzer
// failure: a fraction of the analysis partition is crashed at a fraction
// of the healthy run time, and the instrumented application keeps going on
// the surviving endpoints (or its local fallback profile).
type FaultPoint struct {
	// Bench, Procs, Ratio identify the workload and coupling shape.
	Bench string
	Procs int
	Ratio int
	// Analyzers is the analysis partition size; Killed of them crash.
	Analyzers, Killed int
	// FailFrac is when the crash strikes, as a fraction of the healthy
	// instrumented run time.
	FailFrac float64
	// RefSeconds, HealthySeconds, Seconds are the uninstrumented,
	// fault-free-instrumented and faulty-instrumented wall times.
	RefSeconds, HealthySeconds, Seconds float64
	// OverheadPct is the faulty run's overhead over the reference.
	OverheadPct float64
	// SlowdownVsHealthy is the faulty overhead divided by the healthy
	// overhead (1 = faults cost nothing; the degraded modes are built to
	// keep this bounded).
	SlowdownVsHealthy float64
	// CompletenessPct is the fraction of the healthy run's measurement
	// bytes that still reached an analyzer.
	CompletenessPct float64
	// Failovers, Quarantines, BlocksDropped aggregate the app-side stream
	// health counters.
	Failovers, Quarantines, BlocksDropped int64
	// FellBack counts app ranks that abandoned the stream for a local
	// profile (every such rank still delivered one).
	FellBack int
}

// DefaultWriteDeadline is the back-pressure bound used by the fault
// experiments: long against a healthy analyzer's block turnaround, short
// against an application run.
const DefaultWriteDeadline = 250 * time.Millisecond

// FaultSweepJ measures the coupling's behavior under analyzer loss. For
// each fraction in failFracs it crashes killN analyzer ranks at that
// fraction of the healthy instrumented run time and reports overhead,
// slowdown versus the fault-free coupling, and measurement completeness.
// A deadline of 0 selects DefaultWriteDeadline (the seed's blocking
// behavior is only reachable through the lower-level APIs).
//
// It runs on j parallel workers (j <= 0 means GOMAXPROCS). The reference
// and healthy runs are prerequisites for every fault point (kill times are
// fractions of the healthy run time) and execute first; the per-fraction
// faulty runs are then independent simulations and fan out across the
// pool. Output is byte-identical whatever j.
func FaultSweepJ(p Platform, w *nas.Workload, ratio int, failFracs []float64, killN int, deadline time.Duration, j int) ([]FaultPoint, error) {
	if deadline <= 0 {
		deadline = DefaultWriteDeadline
	}
	analyzers := Readers(w.Procs, ratio)
	killN = min(killN, analyzers)
	ref, err := runReferenceSeed(p, w, 1)
	if err != nil {
		return nil, fmt.Errorf("exp: reference run of %s/%d: %w", w.Name, w.Procs, err)
	}
	healthy, err := runOnline(p, w, ratio, 1, trace.PackV1, &faults{deadline: deadline})
	if err != nil {
		return nil, fmt.Errorf("exp: healthy coupled run of %s/%d: %w", w.Name, w.Procs, err)
	}
	return runner.Run(len(failFracs), j, func(i int) (FaultPoint, error) {
		frac := failFracs[i]
		killAt := des.DurationToTime(time.Duration(frac * healthy.seconds * float64(time.Second)))
		if killAt < des.DurationToTime(time.Millisecond) {
			// The coupling handshake must finish before faults make sense;
			// the map protocol is not fault-aware.
			killAt = des.DurationToTime(time.Millisecond)
		}
		faulty, err := runOnline(p, w, ratio, 1, trace.PackV1, &faults{deadline, killAt, killN})
		if err != nil {
			return FaultPoint{}, fmt.Errorf("exp: faulty run of %s/%d at frac %.2f: %w", w.Name, w.Procs, frac, err)
		}
		pt := FaultPoint{
			Bench: w.Name, Procs: w.Procs, Ratio: ratio,
			Analyzers: analyzers, Killed: killN, FailFrac: frac,
			RefSeconds:     ref,
			HealthySeconds: healthy.seconds,
			Seconds:        faulty.seconds,
			OverheadPct:    100 * (faulty.seconds - ref) / ref,
			Failovers:      faulty.stats.Failovers,
			Quarantines:    faulty.stats.Quarantines,
			BlocksDropped:  faulty.stats.BlocksDropped,
			FellBack:       faulty.fellBack,
		}
		if healthyOvh := healthy.seconds - ref; healthyOvh > 1e-9 {
			pt.SlowdownVsHealthy = (faulty.seconds - ref) / healthyOvh
		}
		if healthy.analyzed > 0 {
			pt.CompletenessPct = 100 * float64(faulty.analyzed) / float64(healthy.analyzed)
		}
		return pt, nil
	})
}

// WriteFaultTable prints fault points as a report table.
func WriteFaultTable(w io.Writer, title string, points []FaultPoint) {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "%-10s %6s %5s %9s %8s %8s %9s %9s %9s %9s %6s %6s %6s %5s\n",
		"bench", "procs", "kill", "failfrac", "ref(s)", "run(s)", "ovh(%)", "slowdown", "compl(%)", "failover", "quar", "drops", "fell", "anlz")
	for _, pt := range points {
		fmt.Fprintf(w, "%-10s %6d %5d %9.2f %8.3f %8.3f %9.2f %9.2f %9.1f %9d %6d %6d %6d %5d\n",
			pt.Bench, pt.Procs, pt.Killed, pt.FailFrac, pt.RefSeconds, pt.Seconds,
			pt.OverheadPct, pt.SlowdownVsHealthy, pt.CompletenessPct,
			pt.Failovers, pt.Quarantines, pt.BlocksDropped, pt.FellBack, pt.Analyzers)
	}
}
