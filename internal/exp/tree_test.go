package exp

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/blackboard"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/tbon"
	"repro/internal/trace"
)

// treeTestOpts is the deterministic e2e configuration: every analysis
// module on, a single blackboard worker so fold order is fixed, and
// small packs so plenty of blocks travel the tree.
func treeTestOpts() ProfileOptions {
	return ProfileOptions{
		Analyzers:        4,
		Workers:          1,
		PackBytes:        1 << 14,
		WaitState:        true,
		TemporalWindowNs: 1e7,
		Callsites:        true,
		Sizes:            true,
	}
}

func treeTestWorkloads(t *testing.T) []*nas.Workload {
	t.Helper()
	lu, err := nas.LU(nas.ClassC, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := nas.CG(nas.ClassC, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []*nas.Workload{lu, cg}
}

// TestTreeProfileMatchesFlat is the deterministic end-to-end harness:
// the same two applications are profiled through the flat pipeline and
// through one- and two-tier reduction trees, in both pack wire formats,
// and within each wire format every topology must produce byte-identical
// analysis content (the masked-report fingerprint). The flat run is each
// format's golden reference — the transport topology may not change the
// profile. (The two wire formats legitimately differ from each other:
// pack boundaries fall differently, so the instrument's modeled
// perturbation of the application differs slightly.)
func TestTreeProfileMatchesFlat(t *testing.T) {
	p := Tera100()
	ws := treeTestWorkloads(t)

	type tc struct {
		name   string
		levels int
		pack   int
	}
	cases := []tc{
		{"flat-v1", 1, trace.PackV1},
		{"flat-v2", 1, trace.PackV2},
		{"flat-v3", 1, trace.PackV3},
		{"tree-L2-v1", 2, trace.PackV1}, // one tier: the root is the only aggregator
		{"tree-L2-v2", 2, trace.PackV2},
		{"tree-L2-v3", 2, trace.PackV3},
		{"tree-L3-v1", 3, trace.PackV1}, // two tiers: interior aggregators + root
		{"tree-L3-v2", 3, trace.PackV2},
		{"tree-L3-v3", 3, trace.PackV3},
	}
	golden := map[int]string{}
	goldenEvents := map[int]int64{}
	flatIngest := map[int]int64{}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			opts := treeTestOpts()
			opts.PackVersion = c.pack
			opts.TreeLevels = c.levels
			opts.TreeFanin = 2
			opts.TreeFlushPacks = 4
			rep, stats, err := ProfileRunStats(p, ws, opts)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := ProfileFingerprint(rep)
			if err != nil {
				t.Fatal(err)
			}
			if golden[c.pack] == "" {
				golden[c.pack] = fp
				goldenEvents[c.pack] = stats.AnalyzedEvents
				flatIngest[c.pack] = stats.RootIngestBytes
			}
			if fp != golden[c.pack] {
				t.Errorf("%s fingerprint %s != golden %s: profile content diverged", c.name, fp[:12], golden[c.pack][:12])
			}
			if stats.AnalyzedEvents != goldenEvents[c.pack] {
				t.Errorf("analyzed events = %d, golden %d", stats.AnalyzedEvents, goldenEvents[c.pack])
			}
			if stats.AnalyzedEvents == 0 {
				t.Fatal("no events analyzed")
			}
			if c.levels <= 1 {
				if stats.TreeTiers != 0 || stats.TreeRanks != 0 {
					t.Fatalf("flat run reports a tree: %+v", stats)
				}
				return
			}
			// Tree shape and tree-only accounting.
			if stats.TreeTiers != c.levels-1 {
				t.Fatalf("tiers = %d, want %d", stats.TreeTiers, c.levels-1)
			}
			if stats.RootPosts == 0 || stats.RootIngestBytes == 0 {
				t.Fatal("root saw no partials")
			}
			// Ingest reduction at this toy scale only holds for the fixed
			// 256-byte v1 records; v2's delta+varint packs are already tiny
			// here, and the per-flush partial tables dominate; the reduction
			// shows at realistic volume (streambench -tree).
			if c.pack == trace.PackV1 && stats.RootIngestBytes >= flatIngest[c.pack] {
				t.Fatalf("tree root ingest %d >= flat %d: no reduction", stats.RootIngestBytes, flatIngest[c.pack])
			}
			if stats.TierIngestBytes[0] == 0 {
				t.Fatal("tier 0 saw no bytes")
			}
			// A healthy run loses nothing.
			if stats.UpDropped != 0 {
				t.Fatalf("healthy run dropped %d blocks", stats.UpDropped)
			}
			// The report still renders fully.
			var buf bytes.Buffer
			if err := rep.Render(&buf); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"chapter 1: LU.C", "chapter 2: CG.C", "Wait-state analysis", "Top call sites"} {
				if !strings.Contains(buf.String(), want) {
					t.Fatalf("tree report missing %q", want)
				}
			}
		})
	}
}

// TestTreeProfileRunMultiWorker runs the two applications through a
// two-tier tree with two blackboard workers and default packs — the
// configuration the golden harness leaves out for its fixed fold order —
// and checks both chapters come out populated with nothing dropped.
func TestTreeProfileRunMultiWorker(t *testing.T) {
	rep, stats, err := ProfileRunStats(Tera100(), treeTestWorkloads(t), ProfileOptions{
		Analyzers: 4, Workers: 2, TreeLevels: 3, TreeFanin: 2, TreeFlushPacks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Chapters) != 2 {
		t.Fatalf("chapters = %d", len(rep.Chapters))
	}
	for _, ch := range rep.Chapters {
		if ch.Profiler.Events() == 0 || ch.WallTime <= 0 {
			t.Fatalf("chapter %s empty", ch.App)
		}
	}
	if stats.TreeTiers != 2 || stats.AnalyzedEvents == 0 || stats.UpDropped != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestTreeScalingSweep runs the sweep helper at test scale and checks
// its baseline-relative accounting.
func TestTreeScalingSweep(t *testing.T) {
	p := Tera100()
	ws := treeTestWorkloads(t)
	pts, err := TreeScalingSweep(p, ws, treeTestOpts(), []TreeConfig{
		{Levels: 2, Fanin: 4, FlushPacks: 4},
		{Levels: 3, Fanin: 2, FlushPacks: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	flat := pts[0]
	if flat.Config.Levels != 1 || !flat.MatchesFlat || flat.IngestReductionPct != 0 {
		t.Fatalf("bad flat baseline: %+v", flat)
	}
	for _, pt := range pts[1:] {
		if !pt.MatchesFlat {
			t.Errorf("%s profile diverged from flat", pt.Config)
		}
		if pt.IngestReductionPct <= 0 {
			t.Errorf("%s ingest reduction %.1f%% <= 0", pt.Config, pt.IngestReductionPct)
		}
		if pt.AnalyzedEvents != flat.AnalyzedEvents {
			t.Errorf("%s events %d != flat %d", pt.Config, pt.AnalyzedEvents, flat.AnalyzedEvents)
		}
		if pt.TreeRanks == 0 {
			t.Errorf("%s missing tree accounting: %+v", pt.Config, pt)
		}
	}
}

// TestTreeAggregatorKill fail-stops an interior aggregator halfway
// through the run and requires the degraded mode of PR 1 to carry the
// tree: the run completes, a full report is produced, the children
// repopulate onto surviving parents, and the data loss is bounded and
// visible in the counters.
func TestTreeAggregatorKill(t *testing.T) {
	p := Tera100()
	ws := treeTestWorkloads(t)
	opts := treeTestOpts()
	// Ship deltas on every pack so partial traffic is in flight when the
	// aggregator dies (with flushing only at end-of-stream the crash
	// would be invisible).
	cfg := TreeConfig{Levels: 3, Fanin: 2, FlushPacks: 1}
	pt, err := TreeFaultRun(p, ws, opts, cfg, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.ReportProduced {
		t.Fatal("faulty run produced no report")
	}
	if pt.KilledLocal != 0 || pt.KillAt < time.Millisecond {
		t.Fatalf("kill metadata wrong: %+v", pt)
	}
	// Bounded loss: the dead endpoint can swallow at most its in-flight
	// credit window per writer, so completeness stays high — and can
	// never exceed the healthy run.
	if pt.CompletenessPct < 50 || pt.CompletenessPct > 100 {
		t.Fatalf("completeness %.1f%% outside (50, 100]", pt.CompletenessPct)
	}
	// The writers must have noticed the death and rerouted: quarantines
	// on the dead endpoint, failovers onto the ring sibling or root, and
	// reparented blocks observed at the surviving parents.
	if pt.UpQuarantines == 0 {
		t.Fatalf("no quarantines after aggregator kill: %+v", pt)
	}
	if pt.UpFailovers == 0 && pt.Reparented == 0 {
		t.Fatalf("no failover traffic after aggregator kill: %+v", pt)
	}
}

// TestTreeOptionValidation pins the option cross-checks: a run needs
// workloads, trace export needs the raw event flow, aggregator faults
// need a tree, and the tree root cannot be killed.
func TestTreeOptionValidation(t *testing.T) {
	p := Tera100()
	ws := treeTestWorkloads(t)[:1]
	cases := []struct {
		name string
		ws   []*nas.Workload
		opts ProfileOptions
		want string
	}{
		{"no-workloads", nil, ProfileOptions{}, "no workloads to profile"},
		{"export-with-tree", ws,
			ProfileOptions{TreeLevels: 2, Export: func(string, *analysis.ExportModule) {}},
			"trace export"},
		{"fault-without-tree", ws,
			ProfileOptions{AggregatorFaults: []AggregatorFault{{Local: 0}}},
			"need a reduction tree"},
		{"kill-root", ws,
			ProfileOptions{TreeLevels: 2, TreeFanin: 4, Analyzers: 4,
				AggregatorFaults: []AggregatorFault{{Local: 0}}},
			"cannot kill the tree root"},
		{"fault-out-of-range", ws,
			ProfileOptions{TreeLevels: 3, TreeFanin: 2, Analyzers: 4,
				AggregatorFaults: []AggregatorFault{{Local: 99}}},
			"outside partition"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			_, _, err := ProfileRunStats(p, c.ws, c.opts)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
		})
	}
}

// leafAndRootRanks is the size of the applications runLeafAndRoot profiles.
const leafAndRootRanks = 64

// runLeafAndRoot runs the smallest tree there is — one leaf analyzer under
// a root, apps application levels with the wait-state module on — with
// leaf standing in for the analyzer's read loop, and returns what a
// ProfileRunStats over it would: the first failure any rank reported, else
// the simulation's own error.
func runLeafAndRoot(t *testing.T, apps int, leaf func(lf *treeLeaf) error) (*analysis.Dispatcher, error) {
	t.Helper()
	bb := blackboard.New(blackboard.Config{Workers: 1})
	t.Cleanup(bb.Close)
	disp, err := analysis.NewDispatcher(bb)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tbon.NewPlan(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tc := &treeCtx{
		plan:     plan,
		apps:     apps,
		leafOpts: make([]analysis.PartialOptions, apps),
		disp:     disp,
		stats:    &RunStats{TierIngestBytes: make([]int64, plan.Tiers())},
		cost:     func(int64) time.Duration { return time.Microsecond },
	}
	for id := range tc.leafOpts {
		pipe, err := disp.AddApp(uint32(id), fmt.Sprintf("app%d", id), leafAndRootRanks)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pipe.EnableWaitState(); err != nil {
			t.Fatal(err)
		}
		tc.leafOpts[id] = pipe.PartialOptions()
	}
	run := &coupledRun{cores: 2}
	run.program("Analyzer", 1, func(r *mpi.Rank) error {
		lf, err := tc.newLeaf(r, run.layout.Init(r))
		if err != nil {
			return err
		}
		return leaf(lf)
	})
	run.program("Aggregator", plan.Ranks(), func(r *mpi.Rank) error {
		return tc.aggregatorMain(r, run.layout.Init(r))
	})
	run.build(Tera100(), 1)
	if err := tc.bind(run.layout); err != nil {
		t.Fatal(err)
	}
	return disp, run.run()
}

// leafEvents folds n send events of application appID into the leaf's
// replica, as absorb would from packs.
func leafEvents(lf *treeLeaf, appID uint32, n int) {
	fold := lf.rep(appID).FoldFunc()
	for i := 0; i < n; i++ {
		rank := int32(i % leafAndRootRanks)
		fold(&trace.Event{Kind: trace.KindIsend, Rank: rank, Peer: (rank + 1 + int32(i%3)) % leafAndRootRanks, Tag: int32(i % 7),
			Comm: 1, Size: int64(64 << (i % 5)), TStart: int64(i) * 100, TEnd: int64(i)*100 + 40})
	}
}

// TestTreeRootRefusesBadPartial: what the root cannot merge — bytes that
// are no partial, a partial cut short, an application nobody registered —
// fails the run with that error; what it merged before stays merged, and
// nothing is half-applied. (On a board KS this was a recovered panic: the
// run succeeded, one subtree short.)
func TestTreeRootRefusesBadPartial(t *testing.T) {
	good := func(appID uint32) []byte {
		pp := analysis.NewPartial(appID, analysis.PartialOptions{AppSize: leafAndRootRanks, WaitState: true})
		pp.AddEvent(&trace.Event{Kind: trace.KindIsend, Rank: 0, Peer: 1, Size: 8, TStart: 1, TEnd: 2})
		return pp.Flush(nil, true)
	}
	for name, c := range map[string]struct {
		bad  []byte
		want string
	}{
		"truncated":       {good(0)[:40], "truncated partial"},
		"not a partial":   {[]byte("sixteen bytes of something else."), "bad partial magic"},
		"unknown app":     {good(2), "unregistered app id 2"},
		"other selection": {analysis.NewPartial(1, analysis.PartialOptions{AppSize: leafAndRootRanks}).Flush(nil, true), "different module selections"},
	} {
		t.Run(name, func(t *testing.T) {
			disp, err := runLeafAndRoot(t, 2, func(lf *treeLeaf) error {
				for _, buf := range [][]byte{good(0), c.bad} {
					if err := lf.up.Write(buf, int64(len(buf))); err != nil {
						t.Error(err)
					}
				}
				lf.up.Close() // the root may be gone by now; its error is the run's
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "tree root") {
				t.Fatalf("run error = %v, want the root's %q", err, c.want)
			}
			if got := disp.Pipeline(0).Profiler.Events(); got != 1 {
				t.Errorf("app 0 holds %d events, want the one merged before the bad block", got)
			}
			if got := disp.Pipeline(1).Profiler.Events(); got != 0 {
				t.Errorf("app 1 holds %d events of a refused partial", got)
			}
		})
	}
}

// TestTreeFlushStorageFollowsPartial: an endpoint's flush allocates for
// the partial it ships — a buffer sized from its previous flush — not the
// stream's 8 MB block bound.
func TestTreeFlushStorageFollowsPartial(t *testing.T) {
	var allocated, shipped uint64
	disp, err := runLeafAndRoot(t, 1, func(lf *treeLeaf) error {
		leafEvents(lf, 0, 2000)
		if err := lf.flush(false); err != nil { // sizes the next one
			return err
		}
		// Let the root merge it: ranks share the process, and the root's
		// first merge builds its dense state.
		lf.r.Compute(time.Millisecond)
		leafEvents(lf, 0, 2000)
		// Empty the pool's classes a flush could use: the flush below pays
		// for its buffer, as every flush did when a pool miss cost 8 MB.
		drainPool()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := lf.flush(false)
		runtime.ReadMemStats(&after)
		allocated, shipped = after.TotalAlloc-before.TotalAlloc, uint64(lf.flushed[0])
		if err != nil {
			return err
		}
		return lf.finish()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := disp.Pipeline(0).Profiler.Events(); got != 4000 {
		t.Fatalf("root holds %d events, want 4000", got)
	}
	if shipped < 1000 || allocated > 4*shipped {
		t.Errorf("flushing a %d-byte partial allocated %d bytes, want at most %d", shipped, allocated, 4*shipped)
	}
}

// TreeFaultPoint reports one aggregator-kill run against its healthy
// twin.
type TreeFaultPoint struct {
	Config TreeConfig
	// KilledLocal is the aggregator partition-local rank that was
	// fail-stopped, KillAt the virtual time of the crash.
	KilledLocal int
	KillAt      time.Duration
	// AppSeconds / AnalyzedEvents for the faulty run.
	AppSeconds     float64
	AnalyzedEvents int64
	// CompletenessPct is 100 x faulty events / healthy events — the
	// bounded-data-loss acceptance metric.
	CompletenessPct float64
	// Reparented counts blocks that reached a non-primary parent;
	// UpFailovers / UpQuarantines / UpDropped are the upstream write-side
	// failure counters. A successful degraded run shows failovers and
	// reparenting with bounded (often zero) drops.
	Reparented    int64
	UpFailovers   int64
	UpQuarantines int64
	UpDropped     int64
	// ReportProduced records that the faulty run still rendered a full
	// report.
	ReportProduced bool
}

// TreeFaultRun profiles the workloads through the tree twice — healthy,
// then with aggregator killLocal fail-stopped at failFrac of the healthy
// run's wall time — and reports the degraded run's completeness and
// failover counters. The tree must have an interior tier for the kill to
// exercise reparenting below the root (TreeLevels >= 3 kills an interior
// aggregator; TreeLevels == 2 kills nothing but the root, which is
// rejected).
func TreeFaultRun(p Platform, workloads []*nas.Workload, base ProfileOptions, cfg TreeConfig, killLocal int, failFrac float64) (TreeFaultPoint, error) {
	opts := base
	opts.TreeLevels = cfg.Levels
	opts.TreeFanin = cfg.Fanin
	opts.TreeFlushPacks = cfg.FlushPacks
	opts.AggregatorFaults = nil
	_, healthy, err := ProfileRunStats(p, workloads, opts)
	if err != nil {
		return TreeFaultPoint{}, fmt.Errorf("exp: tree fault healthy run: %w", err)
	}

	killAt := time.Duration(failFrac * healthy.AppSeconds * float64(time.Second))
	if killAt < time.Millisecond {
		killAt = time.Millisecond
	}
	opts.AggregatorFaults = []AggregatorFault{{Local: killLocal, At: killAt}}
	rep, faulty, err := ProfileRunStats(p, workloads, opts)
	if err != nil {
		return TreeFaultPoint{}, fmt.Errorf("exp: tree fault run: %w", err)
	}
	pt := TreeFaultPoint{
		Config:         cfg,
		KilledLocal:    killLocal,
		KillAt:         killAt,
		AppSeconds:     faulty.AppSeconds,
		AnalyzedEvents: faulty.AnalyzedEvents,
		Reparented:     faulty.Reparented,
		UpFailovers:    faulty.UpFailovers,
		UpQuarantines:  faulty.UpQuarantines,
		UpDropped:      faulty.UpDropped,
		ReportProduced: rep != nil && len(rep.Chapters) == len(workloads),
	}
	if healthy.AnalyzedEvents > 0 {
		pt.CompletenessPct = 100 * float64(faulty.AnalyzedEvents) / float64(healthy.AnalyzedEvents)
	}
	return pt, nil
}
