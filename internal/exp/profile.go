package exp

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/adapt"
	"repro/internal/analysis"
	"repro/internal/blackboard"
	"repro/internal/des"
	"repro/internal/instrument"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/report"
	"repro/internal/tbon"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vmpi"
)

// DefaultTreeFanin is the nominal reduction-tree fan-in when TreeLevels
// selects a tree but TreeFanin is left zero. The paper's TBON sweet spot
// sits in the 4-16 range; 8 balances tier count against per-node merge
// load.
const DefaultTreeFanin = 8

// AggregatorFault schedules a fail-stop crash of one aggregator rank, for
// studying the tree's degraded mode (PR 1's fault machinery applied to
// the reduction tree).
type AggregatorFault struct {
	// Local is the partition-local rank of the aggregator to kill.
	// Killing the root is rejected: it feeds the root blackboard, and
	// fail-stop semantics would lose the report itself.
	Local int
	// At is the virtual time of the crash. Times below one millisecond
	// are deferred to one millisecond so the partition mapping handshake
	// (which is not fault-aware) completes first.
	At time.Duration
}

// ProfileOptions parameterizes a full profiling run.
type ProfileOptions struct {
	// Analyzers is the analyzer partition size (0 = one analyzer core per
	// 16 application cores, the paper's good bandwidth/resource
	// trade-off region).
	Analyzers int
	// Workers is the blackboard worker-pool size (0 = GOMAXPROCS).
	Workers int
	// PackBytes overrides the stream block size (0 = StreamBlockSize).
	PackBytes int
	// WaitState enables the late-sender wait-state analysis per
	// application (the paper's §IV-D module).
	WaitState bool
	// TemporalWindowNs enables temporal maps with the given bucket width
	// in virtual nanoseconds (0 = disabled).
	TemporalWindowNs int64
	// Callsites enables the per-call-site breakdown.
	Callsites bool
	// Sizes enables the message-size distribution.
	Sizes bool
	// WindowNs enables the time-resolved windowed analysis: every
	// pipeline additionally seals per-window partial profiles over the
	// virtual-time axis (window width WindowNs), and an arrival tracker
	// measures the event-to-report latency and per-window lateness. 0
	// disables (the default; runs are byte-identical to before).
	WindowNs int64
	// WindowSlideNs selects sliding windows with the given stride
	// (0 or >= WindowNs = tumbling).
	WindowSlideNs int64
	// WindowGraceNs is the lateness grace period: an event is late for
	// its window when the analyzer's effective clock has passed the
	// window's end by more than this when the event folds.
	WindowGraceNs int64
	// Export, when non-nil, enables the selective trace-export KS ("IO
	// proxy", paper §VI) on every application; after the run each
	// application's module is handed to the callback for writing. Export
	// needs the raw event flow and is therefore incompatible with the
	// reduction tree (TreeLevels > 1).
	Export func(app string, m *analysis.ExportModule)
	// ExportFilter selects the exported events (nil = everything).
	ExportFilter func(*trace.Event) bool
	// PackVersion selects the pack wire format: trace.PackV1 (fixed
	// records; 0 defaults to it), PackV2 (delta+varint columns — the
	// analyzer decodes either per pack, so this only changes the bytes on
	// the wire), or PackV3 (the stream-dictionary format, decoded on the
	// analyzer's fused ingest path instead of the blackboard).
	PackVersion int
	// Replicas > 0 switches the analysis to the shared-nothing replica
	// path: every pipeline's fold KS writes per-worker module replicas
	// instead of the shared (locked) modules, fused v3 ingest runs
	// Replicas lock-free lanes, and the residue settles into the
	// canonical modules before anything reads them. Profiles are
	// byte-identical to the serial path; incompatible with Export (the
	// trace proxy is not a mergeable module).
	Replicas int
	// Telemetry enables engine self-telemetry: the coupling stack's own
	// counters (streams, NIC, sinks, blackboard) are sampled into
	// meta-events, streamed over a dedicated VMPI channel, unpacked by an
	// engine-health KS in the same blackboard, and attached to the report.
	// It also enables the codec instruments (compression ratio, encode and
	// decode ns/event) in the engine-health chapter.
	Telemetry bool
	// TelemetryPeriod is the snapshot cadence in virtual time
	// (0 = the sampler's 10ms default).
	TelemetryPeriod time.Duration
	// Adaptive engages the closed-loop overload controller: a blackboard
	// knowledge source consumes the engine-health snapshots and actuates
	// per-stream credit windows, the pack wire format, the tree's
	// partial-flush cadence, and class-level admission gates that shed
	// events under sustained overload with a quantified completeness
	// bound. Implies Telemetry — the controller is blind without
	// snapshots. Disabled (the default), the run is byte-identical to a
	// non-adaptive one.
	Adaptive bool
	// AdaptiveConfig tunes the controller (zero value = adapt defaults).
	AdaptiveConfig adapt.Config
	// AnalyzerByteRate overrides the modeled analyzer processing rate in
	// bytes/second (0 = the calibration constant). The overload
	// experiments throttle the analysis partition with it.
	AnalyzerByteRate float64

	// TreeLevels selects the analysis topology: 1 (or 0) is the seed's
	// flat pipeline, where every analyzer posts raw packs straight on the
	// root blackboard. L >= 2 inserts a reduction tree with L-1 aggregator
	// tiers (the top tier being the single root that feeds the
	// blackboard): analyzers become leaves that fold packs into partial
	// profiles locally and only compacted partials travel upward.
	TreeLevels int
	// TreeFanin is the tree's nominal fan-in (0 = DefaultTreeFanin).
	TreeFanin int
	// TreeFlushPacks makes leaves and aggregators ship their accumulated
	// partial-profile deltas every N ingested packs/blocks (0 = only at
	// end of stream). Pending wait-state queues always stay local until
	// the final flush so send/recv pairing remains exact.
	TreeFlushPacks int
	// AggregatorFaults crashes aggregator ranks mid-run (tree mode only).
	AggregatorFaults []AggregatorFault
}

// RunStats reports a profiling run's coupling-level measurements — the
// quantities the reduction tree exists to improve, plus its failure
// counters.
type RunStats struct {
	// Analyzers is the resolved analyzer (leaf) partition size.
	Analyzers int
	// AppSeconds is the slowest application's virtual wall time.
	AppSeconds float64
	// AnalyzedEvents counts the events that reached the root pipelines
	// (after tree reduction, when one is configured).
	AnalyzedEvents int64
	// RootIngestBytes / RootPosts count the bytes and blocks the root
	// ingests: raw packs posted on the blackboard in flat mode, encoded
	// partial profiles absorbed by the tree root in tree mode. The tree's
	// acceptance metric.
	RootIngestBytes int64
	RootPosts       int64
	// TreeTiers / TreeRanks describe the aggregator partition (0 when
	// flat).
	TreeTiers int
	TreeRanks int
	// TierIngestBytes[t] counts the encoded-partial bytes entering tree
	// tier t (nil when flat).
	TierIngestBytes []int64
	// Reparented counts blocks that arrived at a node other than the
	// writer's primary parent (failover traffic inside the tree).
	Reparented int64
	// UpFailovers / UpQuarantines / UpDropped aggregate the tree's
	// upstream write-side failure counters across leaves and aggregators.
	UpFailovers   int64
	UpQuarantines int64
	UpDropped     int64
	// ShedEvents counts events dropped by the admission gates (adaptive
	// runs only; every one is accounted per class in the report's
	// completeness section).
	ShedEvents int64
	// AdaptMaxLevel is the highest escalation level the controller
	// reached; AdaptDecisions counts its control decisions.
	AdaptMaxLevel  int
	AdaptDecisions int64
	// WindowCount sums the populated analysis windows across applications
	// (windowed runs only).
	WindowCount int
	// WindowMaxLagNs is the high-water event-to-report latency observed
	// by any application's window tracker.
	WindowMaxLagNs int64
	// WindowLateEvents counts events that arrived after their window
	// should have sealed (still merged; the completeness bound accounts
	// them).
	WindowLateEvents int64
}

// couplingOptions is what the options that shape the coupling resolve to
// on a set of workloads: the sizes their zero values stand for, a pack
// version that names a format, and the analyzer's modeled cost of a block.
// A profile and a capture of it resolve them here, once.
type couplingOptions struct {
	analyzers   int
	packBytes   int
	packVersion int
	cost        func(bytes int64) time.Duration
}

func (opts ProfileOptions) resolve(workloads []*nas.Workload) (couplingOptions, error) {
	if len(workloads) == 0 {
		return couplingOptions{}, fmt.Errorf("exp: no workloads to profile")
	}
	appProcs := 0
	for _, w := range workloads {
		appProcs += w.Procs
	}
	o := couplingOptions{analyzers: opts.Analyzers, packBytes: opts.PackBytes}
	if o.analyzers <= 0 {
		o.analyzers = (appProcs + 15) / 16
	}
	if o.packBytes <= 0 {
		o.packBytes = StreamBlockSize
	}
	var err error
	if o.packVersion, err = packVersionOf(opts.PackVersion); err != nil {
		return couplingOptions{}, err
	}
	rate := opts.AnalyzerByteRate
	if rate <= 0 {
		rate = AnalyzerByteRate
	}
	// Same expression as analysisCost, so the default rate reproduces its
	// float math exactly.
	o.cost = func(bytes int64) time.Duration {
		return time.Duration(float64(bytes) / rate * 1e9)
	}
	return o, nil
}

// ProfileRun executes one or more instrumented applications together with
// an analyzer partition hosting a multi-level blackboard, and returns the
// profiling report (one chapter per application) — the full pipeline
// behind the paper's Figures 17 and 18, including concurrent
// multi-application profiling (Figure 5).
//
// The event transport is real: packs of encoded events flow through VMPI
// streams into the analyzer ranks, which post them on a shared parallel
// blackboard; the dispatcher routes each pack to its application's level
// and its per-pack fold knowledge source reduces them into the
// profiler/topology/density modules concurrently with the simulation.
func ProfileRun(p Platform, workloads []*nas.Workload, opts ProfileOptions) (*report.Report, error) {
	rep, _, err := ProfileRunStats(p, workloads, opts)
	return rep, err
}

// ProfileRunStats is ProfileRun returning the run's coupling statistics
// alongside the report. With TreeLevels > 1 the analyzer partition turns
// into the leaf level of a multi-tier reduction tree: leaves fold packs
// into partial profiles, interior aggregator ranks (a dedicated MPMD
// partition) merge and forward them over per-tier VMPI streams, and the
// root merges the (much smaller) partials that reach it into the
// application levels, straight from their bytes. The profile content is
// identical to the flat pipeline's; only the transport topology changes.
func ProfileRunStats(p Platform, workloads []*nas.Workload, opts ProfileOptions) (*report.Report, *RunStats, error) {
	co, err := opts.resolve(workloads)
	if err != nil {
		return nil, nil, err
	}
	if opts.Adaptive {
		// The controller's only sensor is the engine-health channel.
		opts.Telemetry = true
	}
	analyzers, cost := co.analyzers, co.cost
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	levels := opts.TreeLevels
	if levels <= 0 {
		levels = 1
	}
	var plan *tbon.Plan
	if levels > 1 {
		if opts.Export != nil {
			return nil, nil, fmt.Errorf("exp: trace export needs the raw event flow; use the flat pipeline (TreeLevels <= 1)")
		}
		fanin := opts.TreeFanin
		if fanin == 0 {
			fanin = DefaultTreeFanin
		}
		if plan, err = tbon.NewPlan(analyzers, fanin, levels-1); err != nil {
			return nil, nil, err
		}
		for _, f := range opts.AggregatorFaults {
			if f.Local < 0 || f.Local >= plan.Ranks() {
				return nil, nil, fmt.Errorf("exp: aggregator fault rank %d outside partition of %d", f.Local, plan.Ranks())
			}
			if f.Local == plan.Root() {
				return nil, nil, fmt.Errorf("exp: cannot kill the tree root (local %d): it feeds the root blackboard", f.Local)
			}
		}
	} else if len(opts.AggregatorFaults) > 0 {
		return nil, nil, fmt.Errorf("exp: aggregator faults need a reduction tree (TreeLevels > 1)")
	}

	stats := &RunStats{Analyzers: analyzers}
	if plan != nil {
		stats.TreeTiers = plan.Tiers()
		stats.TreeRanks = plan.Ranks()
		stats.TierIngestBytes = make([]int64, plan.Tiers())
	}

	bb := blackboard.New(blackboard.Config{Workers: workers})
	defer bb.Close()

	// Telemetry wiring happens before any KS registration so per-KS
	// latency histograms resolve at Register time.
	var (
		reg           *telemetry.Registry
		health        *analysis.EngineHealthKS
		streamMetrics *telemetry.StreamMetrics
		sinkMetrics   *telemetry.SinkMetrics
		codecMetrics  *telemetry.CodecMetrics
		treeMetrics   *telemetry.TreeMetrics
		windowMetrics *telemetry.WindowMetrics
	)
	if opts.Telemetry {
		reg = telemetry.NewRegistry()
		bb.SetTelemetry(telemetry.NewBoardMetrics(reg))
		vmpi.RegisterPoolMetrics(reg)
		streamMetrics = telemetry.NewStreamMetrics(reg)
		sinkMetrics = telemetry.NewSinkMetrics(reg)
		codecMetrics = telemetry.NewCodecMetrics(reg)
		if plan != nil {
			treeMetrics = telemetry.NewTreeMetrics(reg, plan.Tiers())
		}
		if opts.WindowNs > 0 {
			// Only windowed runs register the window instruments, so the
			// engine-health chapter of every other run is unchanged.
			windowMetrics = telemetry.NewWindowMetrics(reg)
		}
	}

	// Windowed analysis plumbing: one series module and one arrival
	// tracker per application, shared between the ingest closures below
	// and the per-pipeline Enable loop after layout construction.
	windows := make([]*analysis.WindowedModule, len(workloads))
	trackers := make([]*analysis.WindowTracker, len(workloads))

	disp, err := analysis.NewDispatcher(bb)
	if err != nil {
		return nil, nil, err
	}
	if opts.Replicas > 0 && opts.Export != nil {
		return nil, nil, fmt.Errorf("exp: trace export is incompatible with replica mode (Replicas > 0)")
	}
	// One fused ingest for the whole analyzer partition: per-writer v3
	// decoders keyed by universe rank, shared safely because rank mains
	// execute one at a time on the simulator. With Replicas > 0 the
	// ingest is lane-partitioned over per-lane module replicas.
	fused := analysis.NewParallelFusedIngest(disp, opts.Replicas, 0)
	var replicaMetrics *telemetry.ReplicaMetrics
	if opts.Telemetry && opts.Replicas > 0 {
		replicaMetrics = telemetry.NewReplicaMetrics(reg)
	}
	if opts.Telemetry {
		if health, err = analysis.NewEngineHealthKS(bb); err != nil {
			return nil, nil, err
		}
	}
	// The controller rides the same board: its knowledge source sees every
	// meta-event the engine-health KS sees, closing the loop through the
	// real analysis machinery.
	var ctl *adapt.Controller
	if opts.Adaptive {
		if ctl, err = adapt.NewController(bb, opts.AdaptiveConfig, telemetry.NewControllerMetrics(reg)); err != nil {
			return nil, nil, err
		}
	}

	run := &coupledRun{blockSize: int64(co.packBytes)}

	var tree *treeCtx
	if plan != nil {
		tree = &treeCtx{
			plan:       plan,
			flushEvery: opts.TreeFlushPacks,
			apps:       len(workloads),
			leafOpts:   make([]analysis.PartialOptions, len(workloads)),
			disp:       disp,
			tm:         treeMetrics,
			stats:      stats,
			cost:       cost,
			ctl:        ctl,
			trackers:   make([]*analysis.WindowTracker, len(workloads)),
		}
	}

	// Real payloads: the analyzer decodes them.
	online := instrument.OnlineConfig{PackVersion: co.packVersion}
	if opts.Adaptive {
		// Announce the v3 ceiling so the controller may climb the whole
		// v1→v2→v3 ladder mid-run without renegotiating.
		online.AnnouncePackVersion = trace.PackV3
	}
	err = run.instrumented(workloads, online, func(r *mpi.Rank, sess *vmpi.Session, pr *probe) (func() error, error) {
		rec := pr.rec
		if ctl != nil {
			pr.gate = ctl.NewGate()
			rec.SetGate(pr.gate)
			rec.SetPackVersionFunc(ctl.PackVersion)
			ctl.AddStream(rec.Stream())
		}
		// Nil-safe: with telemetry disabled these attach nil handles, whose
		// methods no-op.
		rec.SetTelemetry(sinkMetrics)
		rec.SetCodecTelemetry(codecMetrics)
		rec.Stream().SetTelemetry(streamMetrics)
		if !opts.Telemetry || sess.PartitionID() != 0 || sess.LocalRank() != 0 {
			return nil, nil
		}
		// One rank in the system carries the sampler: the first
		// application's local rank 0 opens a write stream on the dedicated
		// meta-event channel to analyzer rank 0 and emits snapshots as its
		// own event flow advances virtual time.
		ap := sess.Layout().DescByName("Analyzer")
		telStream := vmpi.NewStream(sess, telemetry.SnapshotBlockSize, vmpi.BalanceNone)
		telStream.SetChannel(telemetry.StreamChannel)
		// The meta channel is itself instrumented: under overload the
		// sampler's writes stall like any other stream's, and those stalls
		// are the controller's most immediate signal.
		telStream.SetTelemetry(streamMetrics)
		if err := telStream.OpenRanks([]int{ap.Globals[0]}, "w"); err != nil {
			return nil, err
		}
		if ctl != nil {
			ctl.AddStream(telStream)
		}
		sampler := telemetry.NewSampler(reg, telStream, opts.TelemetryPeriod, r.Global())
		sampler.SetBufferFunc(func(n int) []byte { return trace.GetBuffer(n)[:0] })
		rec.SetSampler(sampler)
		// The recorder's Finalize flushes the parting snapshot; closing the
		// stream after it releases the analyzer's meta reader.
		return telStream.Close, nil
	})
	if err != nil {
		return nil, nil, err
	}
	run.analyzer(analyzers, streamMetrics, false, func(r *mpi.Rank, sess *vmpi.Session) (reader, error) {
		// The flat pipeline routes each pack through the fused ingest: v3
		// packs decode straight into the modules on this goroutine (stream
		// delivery preserves the per-writer order the v3 dictionary
		// needs), everything else is posted on the shared blackboard.
		// Either way the modeled analysis time is charged.
		// clock sets the window trackers' analyzer clock (windowed runs
		// only; the entries are nil otherwise).
		clock := func(publish bool) {
			for _, tr := range trackers {
				if tr != nil {
					tr.SetNow(int64(r.Now()))
					if publish {
						tr.Publish()
					}
				}
			}
		}
		rd := reader{onBlock: func(blk *vmpi.Block) error {
			stats.RootIngestBytes += blk.Size
			stats.RootPosts++
			// Before the fold, so event-to-report lag is measured against
			// the moment this block started being analyzed.
			clock(false)
			// The analysis is the payload's last owner: it goes back to the
			// pack pool once folded, here or on the board.
			if err := fused.HandOver(blk.From, blk.Payload); err != nil {
				return err
			}
			r.Compute(cost(blk.Size))
			clock(true)
			return nil
		}}
		if tree != nil {
			// Tree mode swaps in the leaf endpoint, which folds packs into
			// partial profiles locally and ships compacted deltas up the
			// tree.
			lf, err := tree.newLeaf(r, sess)
			if err != nil {
				return rd, err
			}
			rd.onBlock, rd.finish = lf.absorb, lf.finish
		}
		if opts.Telemetry && sess.LocalRank() == 0 {
			// Analyzer rank 0 additionally reads the meta-event channel
			// written by the sampler.
			telSt := vmpi.NewStream(sess, telemetry.SnapshotBlockSize, vmpi.BalanceNone)
			telSt.SetChannel(telemetry.StreamChannel)
			telSt.SetTelemetry(streamMetrics)
			if err := telSt.OpenRanks([]int{sess.Layout().Partition(0).Globals[0]}, "r"); err != nil {
				return rd, err
			}
			rd.side = polled{telSt, func(blk *vmpi.Block) error {
				health.PostMeta(blk.Payload)
				if ctl != nil {
					// Settle the board before the sim advances: the
					// controller's knowledge source runs on a host worker,
					// and draining here pins its decision to the snapshot's
					// virtual timestamp instead of leaving actuation to host
					// scheduling. Keeps adaptive runs deterministic.
					bb.Drain()
				}
				return nil
			}}
		}
		return rd, nil
	})
	if tree != nil {
		run.program("Aggregator", plan.Ranks(), func(r *mpi.Rank) error {
			return tree.aggregatorMain(r, run.layout.Init(r))
		})
	}

	run.build(p, 1)
	world, layout := run.world, run.layout
	if opts.Telemetry {
		world.AttachTelemetry(reg)
	}
	if tree != nil {
		if err := tree.bind(layout); err != nil {
			return nil, nil, err
		}
		for _, f := range opts.AggregatorFaults {
			at := des.DurationToTime(f.At)
			if min := des.DurationToTime(time.Millisecond); at < min {
				// The partition mapping handshake is not fault-aware.
				at = min
			}
			world.FailRank(at, tree.aggGlobals[f.Local])
		}
	}

	// Register one pipeline per application level before the run.
	pipes := make([]*analysis.Pipeline, len(workloads))
	waits := make([]*analysis.WaitStateModule, len(workloads))
	temporals := make([]*analysis.TemporalModule, len(workloads))
	callsites := make([]*analysis.CallsiteModule, len(workloads))
	exports := make([]*analysis.ExportModule, len(workloads))
	sizes := make([]*analysis.SizesModule, len(workloads))
	for i, w := range workloads {
		part := layout.DescByName(w.Name)
		if part == nil {
			return nil, nil, fmt.Errorf("exp: partition %q missing", w.Name)
		}
		pipes[i], err = disp.AddApp(uint32(part.ID), w.Name, w.Procs)
		if err != nil {
			return nil, nil, err
		}
		// Decode-side codec accounting (nil-safe when telemetry is off).
		pipes[i].SetCodecTelemetry(codecMetrics)
		if opts.WaitState {
			waits[i], err = pipes[i].EnableWaitState()
			if err != nil {
				return nil, nil, err
			}
		}
		if opts.TemporalWindowNs > 0 {
			temporals[i], err = pipes[i].EnableTemporal(opts.TemporalWindowNs)
			if err != nil {
				return nil, nil, err
			}
		}
		if opts.Callsites {
			callsites[i], err = pipes[i].EnableCallsites()
			if err != nil {
				return nil, nil, err
			}
			for ctx, label := range nas.ContextLabels() {
				callsites[i].Label(ctx, label)
			}
		}
		if opts.Export != nil {
			exports[i], err = pipes[i].EnableExport("proxy", opts.ExportFilter)
			if err != nil {
				return nil, nil, err
			}
		}
		if opts.Sizes {
			sizes[i], err = pipes[i].EnableSizes()
			if err != nil {
				return nil, nil, err
			}
		}
		if opts.WindowNs > 0 {
			// After every content module so the windows inherit the final
			// selection, and before the leaf-options capture so tree leaves
			// seal the same per-window series the root pipeline would.
			windows[i], err = pipes[i].EnableWindows(opts.WindowNs, opts.WindowSlideNs)
			if err != nil {
				return nil, nil, err
			}
			trackers[i] = analysis.NewWindowTracker(opts.WindowNs, opts.WindowSlideNs, opts.WindowGraceNs, windowMetrics)
			if err := pipes[i].AttachWindowTracker(trackers[i]); err != nil {
				return nil, nil, err
			}
		}
		if tree != nil {
			// Leaves build partials with exactly the root pipeline's
			// module selection, so everything shipped up the tree has a
			// home to be absorbed into.
			tree.leafOpts[part.ID] = pipes[i].PartialOptions()
			tree.trackers[part.ID] = trackers[i]
		}
		if opts.Replicas > 0 {
			// After every Enable*: the replica module selection is frozen
			// here. In tree mode only partials reach the root, so the fold
			// KS idles — replica parallelism lives in the flat event flow.
			pipes[i].SetReplicaTelemetry(replicaMetrics)
			if err := pipes[i].EnableReplicas(0); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := run.run(); err != nil {
		return nil, nil, err
	}

	// Streams are closed: let the board settle. (In tree mode the root
	// merged every partial into the levels as it arrived, so from here the
	// report path is the flat one.)
	bb.Drain()

	// Replica mode: merge the worker/lane residue into the canonical
	// modules before anything reads them (no-ops when serial).
	fused.Sync()
	for _, pipe := range pipes {
		pipe.Settle()
	}

	if opts.WindowNs > 0 {
		// Final tracker flush before the closing telemetry snapshot so the
		// window gauges' end-of-run values ride into the engine-health
		// chapter.
		for i := range workloads {
			if tr := trackers[i]; tr != nil {
				tr.Publish()
				if tr.MaxLagNs() > stats.WindowMaxLagNs {
					stats.WindowMaxLagNs = tr.MaxLagNs()
				}
				stats.WindowLateEvents += tr.LateEvents()
			}
			if windows[i] != nil {
				stats.WindowCount += windows[i].Len()
			}
		}
	}

	if opts.Telemetry {
		// One final host-side snapshot captures end-of-run totals — the
		// in-sim sampler's last snapshot predates the analysis tail (reads,
		// blackboard jobs) it triggered. Source -1 marks the host.
		final := reg.EncodeSnapshot(nil, uint64(health.Snapshots()), int64(world.Sim().Now()), -1)
		health.PostMeta(final)
		bb.Drain()
	}

	if opts.Export != nil {
		for i, w := range workloads {
			opts.Export(w.Name, exports[i])
		}
	}

	for i := range workloads {
		if s := world.ProgramFinish(i).Seconds(); s > stats.AppSeconds {
			stats.AppSeconds = s
		}
		stats.AnalyzedEvents += pipes[i].Profiler.Events()
	}
	if ctl != nil {
		stats.ShedEvents = ctl.TotalShed()
		stats.AdaptMaxLevel = ctl.MaxLevelSeen()
		stats.AdaptDecisions = ctl.Decisions()
	}

	rep := &report.Report{
		Title:        fmt.Sprintf("online profiling report (%s)", p.Name),
		EngineHealth: health,
		StreamLoss:   run.lossRows(),
	}
	for i, w := range workloads {
		rep.Chapters = append(rep.Chapters, &report.Chapter{
			App:          w.Name,
			Procs:        w.Procs,
			WallTime:     time.Duration(world.ProgramFinish(i).Duration()),
			Profiler:     pipes[i].Profiler,
			Topology:     pipes[i].Topology,
			Density:      pipes[i].Density,
			WaitState:    waits[i],
			Temporal:     temporals[i],
			Callsites:    callsites[i],
			Sizes:        sizes[i],
			Completeness: pipes[i].Completeness,
			Windows:      windows[i],
			WindowLag:    trackers[i],
		})
	}
	return rep, stats, nil
}
