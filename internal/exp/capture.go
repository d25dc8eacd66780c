package exp

import (
	"fmt"
	"time"

	"repro/internal/instrument"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/report"
	"repro/internal/trace"
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

// CaptureRun executes the same instrumented simulation as ProfileRun —
// identical world, streams, pack encoding and modeled analysis cost — but
// instead of analyzing, the analyzer partition tees every incoming block
// into the returned Capture. Because the analysis engine is host-side in
// ProfileRun (the simulated analyzer only charges Compute time, which
// CaptureRun charges identically), the captured packs, wall times and
// loss counters are exactly what the in-process pipeline would have seen.
//
// Options that require the in-process engine are rejected: Telemetry and
// Adaptive close loops through the live blackboard, trees reshape the
// transport below the capture point, and Export needs the raw event flow.
func CaptureRun(p Platform, workloads []*nas.Workload, opts ProfileOptions) (*Capture, error) {
	if len(workloads) == 0 {
		return nil, fmt.Errorf("exp: no workloads to capture")
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

	appProcs := 0
	for _, w := range workloads {
		appProcs += w.Procs
	}
	analyzers := opts.Analyzers
	if analyzers <= 0 {
		analyzers = (appProcs + 15) / 16
	}
	packBytes := opts.PackBytes
	if packBytes <= 0 {
		packBytes = StreamBlockSize
	}
	packVersion := opts.PackVersion
	if packVersion == 0 {
		packVersion = trace.PackV1
	}
	if packVersion < trace.PackV1 || packVersion > trace.PackV3 {
		return nil, fmt.Errorf("exp: unknown pack version %d", packVersion)
	}
	rate := opts.AnalyzerByteRate
	if rate <= 0 {
		rate = AnalyzerByteRate
	}
	cost := func(bytes int64) time.Duration {
		return time.Duration(float64(bytes) / rate * 1e9)
	}

	cp := &Capture{
		PlatformName:     p.Name,
		PackVersion:      packVersion,
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

	var layout *vmpi.Layout
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}

	type lossProbe struct {
		app  string
		rank int
		rec  *instrument.OnlineRecorder
	}
	var probes []*lossProbe

	programs := make([]mpi.Program, 0, len(workloads)+1)
	for _, w := range workloads {
		w := w
		programs = append(programs, mpi.Program{
			Name: w.Name, Cmdline: "./" + w.Name, Procs: w.Procs,
			Main: func(r *mpi.Rank) {
				sess := layout.Init(r)
				m := instrument.New(r, sess.WorldComm())
				cfg := instrument.OnlineConfig{
					AppID:        uint32(sess.PartitionID()),
					RecordSize:   EventRecordSize,
					PackBytes:    packBytes,
					PerEventCost: OnlinePerEventCost,
					SizeOnly:     false,
				}
				cfg.PackVersion = packVersion
				rec, err := instrument.AttachOnline(sess, "Analyzer", cfg)
				if err != nil {
					fail(err)
					return
				}
				m.SetRecorder(rec)
				probes = append(probes, &lossProbe{app: w.Name, rank: sess.LocalRank(), rec: rec})
				w.Run(m)
			},
		})
	}
	programs = append(programs, mpi.Program{
		Name: "Analyzer", Cmdline: "./analyzer", Procs: analyzers,
		Main: func(r *mpi.Rank) {
			sess := layout.Init(r)
			var m vmpi.Map
			for pid := 0; pid < len(workloads); pid++ {
				if pid == sess.PartitionID() {
					continue
				}
				if err := sess.MapPartitions(pid, vmpi.MapRoundRobin, &m); err != nil {
					fail(err)
					return
				}
			}
			st := vmpi.NewStream(sess, int64(packBytes), vmpi.BalanceRoundRobin)
			if err := st.OpenMap(&m, "r"); err != nil {
				fail(err)
				return
			}
			for {
				blk, err := st.Read(false)
				if err != nil {
					fail(err)
					return
				}
				if blk == nil {
					break
				}
				// Tee the block: the payload goes back to the pool, so the
				// capture keeps its own copy. The modeled analysis cost is
				// charged exactly as the live pipeline charges it, keeping
				// the virtual timeline — and with it every pack boundary,
				// wall time and credit decision — identical.
				cp.Packs = append(cp.Packs, CapturedPack{
					Src:  blk.From,
					Data: append([]byte(nil), blk.Payload...),
				})
				r.Compute(cost(blk.Size))
				blk.Release()
			}
			st.Close()
		},
	})

	world := mpi.NewWorld(p.MPIConfig(appProcs+analyzers), programs...)
	layout = vmpi.NewLayout(world)
	if err := world.Run(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}

	for i, w := range workloads {
		part := layout.DescByName(w.Name)
		if part == nil {
			return nil, fmt.Errorf("exp: partition %q missing", w.Name)
		}
		cp.Apps = append(cp.Apps, CaptureApp{
			Name:     w.Name,
			Procs:    w.Procs,
			AppID:    uint32(part.ID),
			WallTime: time.Duration(world.ProgramFinish(i).Duration()),
		})
	}
	for _, pr := range probes {
		st := pr.rec.StreamStats()
		cp.Loss = append(cp.Loss, report.StreamLossRow{
			App:          pr.app,
			Rank:         pr.rank,
			Dropped:      st.BlocksDropped,
			LostInFlight: st.BlocksLostInFlight,
		})
		cp.Events += pr.rec.Events()
	}
	return cp, nil
}
