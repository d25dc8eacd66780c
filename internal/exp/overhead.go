package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/des"
	"repro/internal/exp/runner"
	"repro/internal/instrument"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/trace"
	"repro/internal/vmpi"
)

// Tool identifies a measurement-tool configuration of the Figure 16
// comparison.
type Tool int

// The five configurations of Figure 16.
const (
	// ToolReference runs uninstrumented.
	ToolReference Tool = iota
	// ToolOnline is the paper's runtime coupling (this work).
	ToolOnline
	// ToolScorePProfile is Score-P's runtime profile (local reduction).
	ToolScorePProfile
	// ToolScorePTrace is Score-P's OTF2 trace through SIONlib files.
	ToolScorePTrace
	// ToolScalasca is Scalasca's runtime summarization.
	ToolScalasca
)

var toolNames = [...]string{
	ToolReference:     "Reference",
	ToolOnline:        "Online Coupling",
	ToolScorePProfile: "ScoreP profile (MPI)",
	ToolScorePTrace:   "ScoreP trace (MPI+SionLib)",
	ToolScalasca:      "Scalasca",
}

// String returns the tool's display name (matching the paper's legend).
func (t Tool) String() string {
	if int(t) < len(toolNames) {
		return toolNames[t]
	}
	return fmt.Sprintf("Tool(%d)", int(t))
}

// Tools lists every tool configuration in Figure 16 order.
func Tools() []Tool {
	return []Tool{ToolReference, ToolScalasca, ToolScorePProfile, ToolScorePTrace, ToolOnline}
}

// OverheadPoint is one (benchmark, procs, tool) measurement.
type OverheadPoint struct {
	// Bench is the workload name (e.g. "SP.D").
	Bench string
	// Procs is the application's core count (analysis cores excluded,
	// like the paper's x axes).
	Procs int
	// Tool is the measurement-tool configuration.
	Tool Tool
	// Ratio is the writer/reader ratio for the online tool (0 otherwise).
	Ratio int
	// RefSeconds and Seconds are the uninstrumented and instrumented
	// Init..Finalize wall times.
	RefSeconds, Seconds float64
	// OverheadPct is the paper's relative overhead in percent.
	OverheadPct float64
	// DataBytes is the measurement data volume produced by the tool — for
	// the online tool, the bytes that actually crossed the stream.
	DataBytes int64
	// LogicalBytes is the fixed-record (pack v1) volume of the same
	// events; it equals DataBytes unless a compact pack format shrank the
	// wire traffic (online tool only, 0 otherwise).
	LogicalBytes int64
	// PackVersion is the online tool's pack wire format (0 for other
	// tools).
	PackVersion int
	// Events is the number of recorded events.
	Events int64
	// Bi is the paper's average instrumentation data bandwidth:
	// DataBytes/Seconds.
	Bi float64
}

// runReferenceSeed executes the workload uninstrumented under the given
// noise seed and returns its wall time in seconds.
func runReferenceSeed(p Platform, w *nas.Workload, seed int64) (float64, error) {
	var comm *mpi.Comm
	cfg := p.MPIConfig(w.Procs)
	cfg.Seed = seed
	world := mpi.NewWorld(cfg, mpi.Program{
		Name: w.Name, Procs: w.Procs,
		Main: func(r *mpi.Rank) { w.Run(instrument.New(r, comm)) },
	})
	comm = world.NewComm(world.ProgramRanks(0))
	if err := world.Run(); err != nil {
		return 0, err
	}
	return world.ProgramFinish(0).Seconds(), nil
}

// faults makes a coupled overhead run failure-aware: writers get the write
// deadline and failover endpoints spanning the whole analysis partition,
// analyzers read from every potential writer, and killN analyzer ranks are
// crashed at killAt (0 of them measures the healthy baseline, on the same
// plumbing; at most the partition's size).
type faults struct {
	deadline time.Duration
	killAt   des.Time
	killN    int
}

// onlineRun is one execution under the online coupling.
type onlineRun struct {
	seconds float64
	// produced is the bytes that crossed the streams, logical their
	// fixed-record volume, analyzed the bytes that reached an analyzer.
	produced, logical, analyzed int64
	events                      int64
	stats                       vmpi.StreamStats
	fellBack                    int
}

// runOnline executes the workload under the online coupling at the given
// writer/reader ratio, with size-only packs and analyzers that charge
// each block's modeled unpack and analysis time; f, when non-nil, makes
// the coupling failure-aware and schedules its crashes.
func runOnline(p Platform, w *nas.Workload, ratio int, seed int64, packVersion int, f *faults) (onlineRun, error) {
	analyzers := Readers(w.Procs, ratio)
	cfg := instrument.OnlineConfig{SizeOnly: true, PackVersion: packVersion}
	if f != nil {
		cfg.WriteDeadline = f.deadline
		cfg.FailoverEndpoints = analyzers - 1
	}
	c := &coupledRun{blockSize: StreamBlockSize, mayLose: f != nil}
	if err := c.instrumented([]*nas.Workload{w}, cfg, nil); err != nil {
		return onlineRun{}, err
	}
	var res onlineRun
	c.analyzer(analyzers, nil, f != nil, func(r *mpi.Rank, _ *vmpi.Session) (reader, error) {
		return reader{onBlock: func(blk *vmpi.Block) error {
			res.analyzed += blk.Size
			// The bytes are not retained past this point, so recycle the
			// payload.
			r.Compute(analysisCost(blk.Size))
			blk.Release()
			return nil
		}}, nil
	})
	c.build(p, seed)
	if f != nil {
		for k := 0; k < f.killN; k++ {
			c.world.FailRank(f.killAt, w.Procs+k)
		}
	}
	if err := c.run(); err != nil {
		return onlineRun{}, err
	}
	res.seconds = c.world.ProgramFinish(0).Seconds()
	for _, pr := range c.probes {
		res.produced += pr.rec.BytesProduced()
		res.logical += pr.rec.LogicalBytes()
		res.events += pr.rec.Events()
		st := pr.rec.StreamStats()
		res.stats.Failovers += st.Failovers
		res.stats.Quarantines += st.Quarantines
		res.stats.BlocksDropped += st.BlocksDropped
		if pr.rec.FellBack() {
			res.fellBack++
		}
	}
	return res, nil
}

// analysisCost converts an incoming block size to analyzer processing
// time at AnalyzerByteRate.
func analysisCost(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / AnalyzerByteRate * 1e9)
}

// runFileTool executes the workload under a filesystem-based tool and
// returns (wall seconds, data bytes, events).
func runFileTool(p Platform, w *nas.Workload, tool Tool, seed int64) (float64, int64, int64, error) {
	var comm *mpi.Comm
	var set *instrument.SIONSet
	var bytes, events int64
	cfg0 := p.MPIConfig(w.Procs)
	cfg0.Seed = seed
	world := mpi.NewWorld(cfg0, mpi.Program{
		Name: w.Name, Procs: w.Procs,
		Main: func(r *mpi.Rank) {
			m := instrument.New(r, comm)
			// Preserve cost proportions under iteration reduction: the
			// periodic flush cadence and the constant end-of-run dumps
			// occupy the same fraction of a truncated run as of a full
			// one, so overhead percentages are unchanged.
			scale := func(v int64) int64 {
				if w.FullIters > 0 && w.Iters < w.FullIters {
					v = v * int64(w.Iters) / int64(w.FullIters)
				}
				if v < 4096 {
					v = 4096
				}
				return v
			}
			var rec instrument.Recorder
			var counter *instrument.NullRecorder
			switch tool {
			case ToolScorePProfile:
				cfg := instrument.DefaultProfileConfig()
				cfg.DumpBytes = scale(cfg.DumpBytes)
				rec = instrument.NewProfileRecorder(r, r.World().FS(), "scorep-profile", cfg)
			case ToolScalasca:
				cfg := instrument.ProfileConfig{PerEventCost: 350 * time.Nanosecond, DumpBytes: scale(512 << 10)}
				rec = instrument.NewProfileRecorder(r, r.World().FS(), "scalasca", cfg)
			case ToolScorePTrace:
				cfg := instrument.DefaultTraceConfig()
				cfg.BufferBytes = scale(cfg.BufferBytes)
				rec = instrument.NewTraceRecorder(r, r.World().FS(), set, cfg)
			default:
				counter = &instrument.NullRecorder{}
				rec = counter
			}
			m.SetRecorder(rec)
			w.Run(m)
			bytes += rec.BytesProduced()
			if counter != nil {
				events += counter.EventsSeen
			} else if tr, ok := rec.(*instrument.TraceRecorder); ok {
				events += tr.BytesProduced() / 80
			} else if pr, ok := rec.(*instrument.ProfileRecorder); ok {
				var n int64
				for _, k := range pr.Profile().Kinds() {
					n += pr.Profile()[k].Hits
				}
				events += n
			}
		},
	})
	comm = world.NewComm(world.ProgramRanks(0))
	set = instrument.NewSIONSet(world.FS(), p.CoresPerNode)
	if err := world.Run(); err != nil {
		return 0, 0, 0, err
	}
	return world.ProgramFinish(0).Seconds(), bytes, events, nil
}

// MeasureOverhead runs the workload uninstrumented and under the given
// tool, returning the relative overhead point. ratio applies to the online
// tool only.
func MeasureOverhead(p Platform, w *nas.Workload, tool Tool, ratio int) (OverheadPoint, error) {
	ref, err := runReferenceSeed(p, w, 1)
	if err != nil {
		return OverheadPoint{}, fmt.Errorf("exp: reference run of %s/%d: %w", w.Name, w.Procs, err)
	}
	return MeasureOverheadWithRef(p, w, tool, ratio, ref)
}

// MeasureOverheadWithRef is MeasureOverhead with a precomputed reference
// wall time (seed 1), so sweeps comparing several tools on one workload
// pay for the reference run once.
func MeasureOverheadWithRef(p Platform, w *nas.Workload, tool Tool, ratio int, ref float64) (OverheadPoint, error) {
	return measureOverheadSeed(p, w, tool, ratio, ref, 1, trace.PackV1)
}

func measureOverheadSeed(p Platform, w *nas.Workload, tool Tool, ratio int, ref float64, seed int64, packVersion int) (OverheadPoint, error) {
	var err error
	pt := OverheadPoint{Bench: w.Name, Procs: w.Procs, Tool: tool, RefSeconds: ref}
	switch tool {
	case ToolReference:
		pt.Seconds = ref
	case ToolOnline:
		pt.Ratio = ratio
		pt.PackVersion = packVersion
		var run onlineRun
		run, err = runOnline(p, w, ratio, seed, packVersion, nil)
		pt.Seconds, pt.DataBytes, pt.LogicalBytes, pt.Events = run.seconds, run.produced, run.logical, run.events
	default:
		pt.Seconds, pt.DataBytes, pt.Events, err = runFileTool(p, w, tool, seed)
	}
	if err != nil {
		return OverheadPoint{}, fmt.Errorf("exp: %s run of %s/%d: %w", tool, w.Name, w.Procs, err)
	}
	pt.OverheadPct = 100 * (pt.Seconds - pt.RefSeconds) / pt.RefSeconds
	if pt.Seconds > 0 {
		pt.Bi = float64(pt.DataBytes) / pt.Seconds
	}
	return pt, nil
}

// MeasureOverheadAvg repeats the paired (reference, tool) measurement
// under `repeats` different noise seeds and averages, exactly as the paper
// averages its 3 to 5 passes to suppress measurement noise. Each seed
// draws a fresh ±0.2 % per-rank compute-jitter realization. packVersion is
// the online tool's pack wire format (0 = trace.PackV1).
func MeasureOverheadAvg(p Platform, w *nas.Workload, tool Tool, ratio, repeats, packVersion int) (OverheadPoint, error) {
	pts := make([]OverheadPoint, max(repeats, 1))
	for s := range pts {
		seed := int64(s + 1)
		ref, err := runReferenceSeed(p, w, seed)
		if err != nil {
			return OverheadPoint{}, fmt.Errorf("exp: reference run of %s/%d: %w", w.Name, w.Procs, err)
		}
		if pts[s], err = measureOverheadSeed(p, w, tool, ratio, ref, seed, packVersion); err != nil {
			return OverheadPoint{}, err
		}
	}
	return averageOverhead(pts), nil
}

// averageOverhead folds one configuration's per-seed points, in seed order
// (so the floating-point sums do not depend on how the runs were scheduled):
// times and overhead are means, volumes are the last seed's.
func averageOverhead(pts []OverheadPoint) OverheadPoint {
	acc := pts[len(pts)-1]
	acc.RefSeconds, acc.Seconds, acc.OverheadPct = 0, 0, 0
	for _, pt := range pts {
		acc.RefSeconds += pt.RefSeconds
		acc.Seconds += pt.Seconds
		acc.OverheadPct += pt.OverheadPct
	}
	n := float64(len(pts))
	acc.RefSeconds /= n
	acc.Seconds /= n
	acc.OverheadPct /= n
	acc.Bi = 0
	if acc.Seconds > 0 {
		acc.Bi = float64(acc.DataBytes) / acc.Seconds
	}
	return acc
}

// Fig15Case is one benchmark series of Figure 15.
type Fig15Case struct {
	// Kind is the benchmark ("BT", "CG", ...; "EulerMHD").
	Kind string
	// Class is the NAS class (ignored for EulerMHD).
	Class nas.Class
}

// Fig15Cases returns the paper's Figure 15 series.
func Fig15Cases() []Fig15Case {
	return []Fig15Case{
		{"BT", nas.ClassC}, {"BT", nas.ClassD},
		{"CG", nas.ClassC},
		{"FT", nas.ClassC},
		{"LU", nas.ClassC}, {"LU", nas.ClassD},
		{"SP", nas.ClassC}, {"SP", nas.ClassD},
		{"EulerMHD", 0},
	}
}

// Fig15Grid resolves the Figure 15 measurement grid: each case over the
// given process counts, in case order. iters reduces the timestep count
// (0 = official counts). Process counts are snapped to each benchmark's
// constraint; unsupported/degenerate combinations are skipped, as the paper
// omits them. The grid is resolved up front because snapping and the skip
// rules are cheap and order-dependent; the measurements (MeasureOverheadAvg
// of ToolOnline at 1:1, as in the paper) are then independent simulations,
// one set per grid point, and can fan out over a runner.
func Fig15Grid(cases []Fig15Case, procsList []int, iters int) []*nas.Workload {
	var grid []*nas.Workload
	for _, c := range cases {
		seen := map[int]bool{}
		for _, procs := range procsList {
			procs = nas.ValidProcs(c.Kind, procs)
			if procs < 2 || seen[procs] {
				continue
			}
			seen[procs] = true
			w, err := nas.ByName(c.Kind, c.Class, procs, iters)
			if err != nil {
				continue
			}
			grid = append(grid, w)
		}
	}
	return grid
}

// Fig16SweepJ measures SP.D under every tool configuration over the given
// process counts, averaging 5 noise seeds per point as the paper does on
// Curie. Reference runs are computed once per seed and shared across the
// tools. packVersion is the online tool's pack wire format; the file-based
// tools are unaffected.
//
// It runs on j parallel workers (j <= 0 means GOMAXPROCS). For each process
// count the per-seed reference runs fan out first (the tool runs need
// them), then the tool×seed measurement grid fans out; the per-tool
// averages are folded in seed order afterwards, so the floating-point sums
// — and therefore the output — are byte-identical whatever j.
func Fig16SweepJ(p Platform, procsList []int, iters, j, packVersion int) ([]OverheadPoint, error) {
	const repeats = 5
	var out []OverheadPoint
	for _, procs := range procsList {
		procs = nas.ValidProcs("SP", procs)
		w, err := nas.SP(nas.ClassD, procs, iters)
		if err != nil {
			return out, err
		}
		refs, err := runner.Run(repeats, j, func(sd int) (float64, error) {
			return runReferenceSeed(p, w, int64(sd+1))
		})
		if err != nil {
			return out, err
		}
		tools := Tools()
		pts, err := runner.Run(len(tools)*repeats, j, func(i int) (OverheadPoint, error) {
			tool, sd := tools[i/repeats], i%repeats
			return measureOverheadSeed(p, w, tool, 1, refs[sd], int64(sd+1), packVersion)
		})
		if err != nil {
			return out, err
		}
		for t := range tools {
			out = append(out, averageOverhead(pts[t*repeats:(t+1)*repeats]))
		}
	}
	return out, nil
}

// WriteOverheadTable prints overhead points as figure series rows.
func WriteOverheadTable(w io.Writer, title string, points []OverheadPoint) {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "%-10s %7s %-28s %10s %10s %9s %12s %12s\n",
		"bench", "procs", "tool", "ref(s)", "run(s)", "ovh(%)", "data", "Bi(MB/s)")
	for _, pt := range points {
		fmt.Fprintf(w, "%-10s %7d %-28s %10.3f %10.3f %9.2f %12s %12.2f\n",
			pt.Bench, pt.Procs, pt.Tool, pt.RefSeconds, pt.Seconds, pt.OverheadPct,
			humanBytes(pt.DataBytes), pt.Bi/1e6)
	}
}

func humanBytes(b int64) string {
	f := float64(b)
	units := []string{"B", "KB", "MB", "GB", "TB"}
	i := 0
	for f >= 1024 && i < len(units)-1 {
		f /= 1024
		i++
	}
	return fmt.Sprintf("%.2f%s", f, units[i])
}
