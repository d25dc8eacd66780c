package exp

import (
	"fmt"
	"time"

	"repro/internal/instrument"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/report"
	"repro/internal/vmpi"
)

// CapturedPack is one stream block as the analyzer partition received it:
// the writer's universe rank plus the pack bytes in the negotiated wire
// format. Captured in arrival order, which preserves each writer's pack
// order — the invariant the v3 stream-dictionary decode depends on.
type CapturedPack struct {
	Src  int
	Data []byte
}

// CaptureApp is one application's run facts, everything the daemon needs
// to head a report chapter.
type CaptureApp struct {
	Name     string
	Procs    int
	AppID    uint32
	WallTime time.Duration
}

// Capture is a profiling run's full analyzer-side input, decoupled from
// the analysis: the packs the analyzer partition absorbed, per-writer,
// in order, plus the per-application metadata and per-stream loss
// accounting the report needs. A Capture is what a remote client replays
// to the profiling daemon — the daemon analyzing a Capture produces a
// report byte-identical to ProfileRun analyzing the live streams,
// because the simulation below the analyzer absorb point is unchanged.
type Capture struct {
	// PlatformName is the platform model's name (the report title cites it).
	PlatformName string
	// PackVersion is the wire format every captured pack uses.
	PackVersion int
	// Apps lists the applications in partition order (chapter order).
	Apps []CaptureApp
	// Packs holds the analyzer-bound stream blocks in arrival order.
	Packs []CapturedPack
	// Loss is the per-stream loss accounting in probe order.
	Loss []report.StreamLossRow
	// Events counts the events the recorders produced.
	Events int64
	// WaitState, TemporalWindowNs, Callsites, Sizes echo the analysis
	// module selection the run was captured for.
	WaitState        bool
	TemporalWindowNs int64
	Callsites        bool
	Sizes            bool
	// WindowNs, WindowSlideNs, WindowGraceNs echo the windowed-analysis
	// geometry (0 = not windowed), so a replayed session rebuilds the
	// same per-window series.
	WindowNs      int64
	WindowSlideNs int64
	WindowGraceNs int64
	// Labels maps call-site contexts to labels (Callsites runs only).
	Labels map[uint32]string
}

// CaptureRun executes the instrumented simulation of ProfileRun with the
// analysis taken out: the analyzer partition tees every incoming block into
// the returned Capture and charges the block's modeled analysis cost. Both
// are one coupledRun under options resolved by one function, and the
// analysis engine is host-side in ProfileRun (its simulated analyzer only
// charges that same Compute time), so the captured packs, wall times and
// loss counters are exactly what the in-process pipeline would have seen
// (TestCaptureRunMatchesProfileRun).
//
// Options that require the in-process engine are rejected: Telemetry and
// Adaptive close loops through the live blackboard, trees reshape the
// transport below the capture point, and Export needs the raw event flow.
func CaptureRun(p Platform, workloads []*nas.Workload, opts ProfileOptions) (*Capture, error) {
	co, err := opts.resolve(workloads)
	if err != nil {
		return nil, err
	}
	if opts.Telemetry || opts.Adaptive {
		return nil, fmt.Errorf("exp: capture cannot host the telemetry/adaptive loop (it has no analysis engine)")
	}
	if opts.TreeLevels > 1 {
		return nil, fmt.Errorf("exp: capture taps the analyzer ingest point; reduction trees reshape it (TreeLevels <= 1 only)")
	}
	if opts.Export != nil {
		return nil, fmt.Errorf("exp: trace export needs the in-process engine")
	}

	cp := &Capture{
		PlatformName:     p.Name,
		PackVersion:      co.packVersion,
		WaitState:        opts.WaitState,
		TemporalWindowNs: opts.TemporalWindowNs,
		Callsites:        opts.Callsites,
		Sizes:            opts.Sizes,
		WindowNs:         opts.WindowNs,
		WindowSlideNs:    opts.WindowSlideNs,
		WindowGraceNs:    opts.WindowGraceNs,
	}
	if opts.Callsites {
		cp.Labels = map[uint32]string{}
		for ctx, label := range nas.ContextLabels() {
			cp.Labels[ctx] = label
		}
	}

	run := &coupledRun{blockSize: int64(co.packBytes)}
	if err := run.instrumented(workloads, instrument.OnlineConfig{PackVersion: co.packVersion}, nil); err != nil {
		return nil, err
	}
	run.analyzer(co.analyzers, nil, false, func(r *mpi.Rank, _ *vmpi.Session) (reader, error) {
		return reader{onBlock: func(blk *vmpi.Block) error {
			// Tee the block: the payload goes back to the pool, so the
			// capture keeps its own copy.
			cp.Packs = append(cp.Packs, CapturedPack{
				Src:  blk.From,
				Data: append([]byte(nil), blk.Payload...),
			})
			r.Compute(co.cost(blk.Size))
			blk.Release()
			return nil
		}}, nil
	})
	run.build(p, 1)
	if err := run.run(); err != nil {
		return nil, err
	}

	for i, w := range workloads {
		part := run.layout.DescByName(w.Name)
		if part == nil {
			return nil, fmt.Errorf("exp: partition %q missing", w.Name)
		}
		cp.Apps = append(cp.Apps, CaptureApp{
			Name:     w.Name,
			Procs:    w.Procs,
			AppID:    uint32(part.ID),
			WallTime: time.Duration(run.world.ProgramFinish(i).Duration()),
		})
	}
	cp.Loss = run.lossRows()
	for _, pr := range run.probes {
		cp.Events += pr.rec.Events()
	}
	return cp, nil
}
