package exp

import (
	"fmt"
	"time"

	"repro/internal/adapt"
	"repro/internal/analysis"
	"repro/internal/mpi"
	"repro/internal/tbon"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vmpi"
)

// treeBlockBytes is the block size of the tree's partial-profile streams.
// Encoded partials are statistics tables, not event flows: even with
// every module enabled they sit far below this bound, and a partial that
// does exceed it fails the Write loudly instead of truncating. It bounds
// the stream's blocks, not the buffers that carry them: those are sized by
// what they hold (shipPartial).
const treeBlockBytes = 8 << 20

// A partial is bytes from the leaf's flush to the root's absorb: a leaf
// encodes its replica's delta, an interior aggregator merges what arrives
// into a per-application accumulator straight from the bytes
// (Partial.MergeEncoded) and encodes that, the root hands the bytes to the
// dispatcher (AbsorbEncoded), which merges them into the application's
// level the same way. Whoever merges a block releases it to the pool.

// shipPartial flushes pp upstream (Partial.FlushPooled, *last being the
// endpoint's previous flush of that application) and returns the bytes
// written.
func shipPartial(up *vmpi.Stream, pp *analysis.Partial, last *int, final bool) (int64, error) {
	buf := pp.FlushPooled(last, final)
	return int64(len(buf)), up.Write(buf, int64(len(buf)))
}

// treeCtx carries the reduction-tree wiring shared by the leaf, interior
// aggregator and root rank mains of one profiling run. Rank mains run
// one at a time on the simulator, so the plain stats updates below are
// safe.
type treeCtx struct {
	plan       *tbon.Plan
	flushEvery int
	apps       int
	leafOpts   []analysis.PartialOptions // indexed by application partition id
	disp       *analysis.Dispatcher
	tm         *telemetry.TreeMetrics // nil-safe when telemetry is off
	stats      *RunStats
	// cost models the analyzer processing time for an ingested block
	// (profile.go builds it from the run's analyzer byte rate).
	cost func(int64) time.Duration
	// ctl, when non-nil, is the adaptive controller; its FlushEvery
	// overrides the static partial-flush cadence.
	ctl *adapt.Controller
	// trackers holds the per-application window trackers (indexed by
	// application partition id, entries nil when the run is not
	// windowed). Leaves observe them: in tree mode raw events exist only
	// below the root, so event-to-report lag is measured at the leaf
	// fold.
	trackers []*analysis.WindowTracker

	// Filled by bind once the layout exists (before world.Run).
	leafGlobals []int
	aggGlobals  []int
	// primary maps a child's universe rank to its primary parent's
	// universe rank; a block arriving anywhere else traveled a failover
	// (reparenting) path.
	primary map[int]int
}

// bind resolves the plan's partition-local addressing against the
// concrete layout.
func (tc *treeCtx) bind(layout *vmpi.Layout) error {
	an := layout.DescByName("Analyzer")
	ag := layout.DescByName("Aggregator")
	if an == nil || ag == nil {
		return fmt.Errorf("exp: tree partitions missing from layout")
	}
	tc.leafGlobals = an.Globals
	tc.aggGlobals = ag.Globals
	tc.primary = make(map[int]int, len(tc.leafGlobals)+len(tc.aggGlobals))
	for i, g := range tc.leafGlobals {
		tc.primary[g] = tc.aggGlobals[tc.plan.LeafParent(i)]
	}
	for l, g := range tc.aggGlobals {
		if p := tc.plan.Parent(l); p >= 0 {
			tc.primary[g] = tc.aggGlobals[p]
		}
	}
	return nil
}

// writersInto returns every rank that may write into tier t: all leaves
// for tier 0, the whole tier below otherwise. Read streams span the full
// level (not just the assigned children) because failover can reroute
// any child to any node of its upstream tier.
func (tc *treeCtx) writersInto(t int) []int {
	if t == 0 {
		return tc.leafGlobals
	}
	out := make([]int, tc.plan.Sizes[t-1])
	for j := range out {
		out[j] = tc.aggGlobals[tc.plan.Local(t-1, j)]
	}
	return out
}

// cadence returns the current partial-flush interval in packs: the
// controller's dynamic value when one is engaged and has decided, else
// the static TreeFlushPacks option (0 = flush only at end of stream).
func (tc *treeCtx) cadence() int {
	if tc.ctl != nil {
		if n := tc.ctl.FlushEvery(); n > 0 {
			return n
		}
	}
	return tc.flushEvery
}

func (tc *treeCtx) addUp(st vmpi.StreamStats) {
	tc.stats.UpFailovers += st.Failovers
	tc.stats.UpQuarantines += st.Quarantines
	tc.stats.UpDropped += st.BlocksDropped
}

// openUpstream builds a tier-entry write stream over the given
// failover-ordered peer locals: BalanceNone keeps traffic on the primary
// parent while it is healthy, and the write deadline bounds how long a
// dead parent can stall the writer before traffic fails over.
func (tc *treeCtx) openUpstream(sess *vmpi.Session, channel int, order []int) (*vmpi.Stream, error) {
	up := vmpi.NewStream(sess, treeBlockBytes, vmpi.BalanceNone)
	up.SetChannel(channel)
	up.SetWriteDeadline(DefaultWriteDeadline)
	peers := make([]int, len(order))
	for i, l := range order {
		peers[i] = tc.aggGlobals[l]
	}
	return up, up.OpenRanks(peers, "w")
}

// treeLeaf is the analyzer-side tree endpoint: instead of posting raw
// packs on the root blackboard, a leaf decodes each pack into
// per-application partial profiles and ships compacted deltas up the
// tree — the change that takes the root's ingest volume from O(events)
// to O(profile size).
type treeLeaf struct {
	tc *treeCtx
	r  *mpi.Rank
	up *vmpi.Stream
	// reps holds one single-owner replica per application (indexed by
	// partition id, minted on the application's first pack): the leaf folds
	// the way a daemon session does, and its partial is the delta it ships.
	// flushed is the length of each one's previous flush.
	reps    []*analysis.Replica
	flushed []int
	packs   int
	// decs holds one persistent stream decoder per writer (keyed by the
	// writer's universe rank) for every pack format: v3 packs index a
	// cross-pack dictionary, so each writer's stream must decode in order
	// through its own decoder. The stream read loop delivers exactly that
	// order.
	decs trace.Decoders
}

func (tc *treeCtx) newLeaf(r *mpi.Rank, sess *vmpi.Session) (*treeLeaf, error) {
	up, err := tc.openUpstream(sess, tbon.Channel(0), tc.plan.LeafUpstreamOrder(sess.LocalRank()))
	return &treeLeaf{tc: tc, r: r, up: up,
		reps:    make([]*analysis.Replica, tc.apps),
		flushed: make([]int, tc.apps),
		decs:    make(trace.Decoders)}, err
}

// flush encodes and ships every application's accumulated delta. Settled
// statistics reset on each flush; pending wait-state queues travel only
// on the final flush, so send/recv pairing stays positionally exact.
func (lf *treeLeaf) flush(final bool) error {
	for app, rep := range lf.reps {
		if rep == nil {
			continue
		}
		if _, err := shipPartial(lf.up, rep.Partial(), &lf.flushed[app], final); err != nil {
			return fmt.Errorf("exp: leaf partial upstream: %w", err)
		}
	}
	return nil
}

// rep returns (creating on first use) the application's replica, tracked
// by the window tracker on windowed runs so leaves account event-to-report
// lag where the raw events actually fold.
func (lf *treeLeaf) rep(appID uint32) *analysis.Replica {
	rep := lf.reps[appID]
	if rep == nil {
		rep = analysis.NewReplica(appID, lf.tc.leafOpts[appID])
		if tr := lf.tracker(appID); tr != nil {
			rep.Track(tr)
		}
		lf.reps[appID] = rep
	}
	return rep
}

// tracker returns the application's window tracker (nil when the run is
// not windowed).
func (lf *treeLeaf) tracker(appID uint32) *analysis.WindowTracker {
	if int(appID) >= len(lf.tc.trackers) {
		return nil
	}
	return lf.tc.trackers[appID]
}

// absorb folds one incoming pack into the leaf's partials and charges
// the modeled analysis time. Audit packs — the admission gates' shed
// ledgers — fold into the partial's completeness module and ride the
// same reduction path as the statistics they bound.
func (lf *treeLeaf) absorb(blk *vmpi.Block) error {
	h, err := trace.PeekHeader(blk.Payload)
	if err != nil {
		return fmt.Errorf("exp: leaf pack header: %w", err)
	}
	if int(h.AppID) >= len(lf.reps) {
		return fmt.Errorf("exp: pack for unknown app id %d", h.AppID)
	}
	if h.Version == trace.PackAudit {
		_, entries, err := trace.DecodeAuditPack(blk.Payload)
		if err != nil {
			return fmt.Errorf("exp: leaf audit decode: %w", err)
		}
		lf.rep(h.AppID).Partial().AddAudit(entries)
		lf.r.Compute(lf.tc.cost(blk.Size))
		blk.Release()
		return nil
	}
	rep := lf.rep(h.AppID)
	if tr := lf.tracker(h.AppID); tr != nil {
		// Clock in before the fold: lag is judged against the moment this
		// leaf started analyzing the pack.
		tr.SetNow(int64(lf.r.Now()))
	}
	_, err = lf.decs.For(blk.From).DecodeDispatch(blk.Payload, rep.FoldFunc())
	rep.EndPack()
	rep.Settle() // a writer's packs arrive in order: pair what this one completed
	if err != nil {
		return fmt.Errorf("exp: leaf pack decode: %w", err)
	}
	lf.r.Compute(lf.tc.cost(blk.Size))
	if tr := lf.tracker(h.AppID); tr != nil {
		tr.SetNow(int64(lf.r.Now()))
		tr.Publish()
	}
	blk.Release()
	lf.packs++
	if n := lf.tc.cadence(); n > 0 && lf.packs%n == 0 {
		return lf.flush(false)
	}
	return nil
}

// finish ships the final deltas (pendings included) and closes the
// upstream, then folds the endpoint's failure counters into the run
// stats.
func (lf *treeLeaf) finish() error {
	if err := lf.flush(true); err != nil {
		return err
	}
	if err := lf.up.Close(); err != nil {
		return err
	}
	lf.tc.addUp(lf.up.Stats())
	return nil
}

// aggregatorMain is the Main of every aggregator-partition rank: the
// root absorbs what reaches it into the application levels, every other
// rank merges its tier's incoming partials and forwards compacted results
// one tier up.
func (tc *treeCtx) aggregatorMain(r *mpi.Rank, sess *vmpi.Session) error {
	local := sess.LocalRank()
	if local == tc.plan.Root() {
		return tc.rootMain(r, sess)
	}
	tier := tc.plan.TierOf(local)
	myGlobal := sess.Rank().Global()
	rd := vmpi.NewStream(sess, treeBlockBytes, vmpi.BalanceRoundRobin)
	rd.SetChannel(tbon.Channel(tier))
	if err := rd.OpenRanks(tc.writersInto(tier), "r"); err != nil {
		return err
	}
	up, err := tc.openUpstream(sess, tbon.Channel(tier+1), tc.plan.UpstreamOrder(local))
	if err != nil {
		return err
	}
	// acc holds one accumulator per application, minted on its first block
	// with the module selection its leaves flush; forwarded is the length
	// of each one's previous flush.
	acc := make([]*analysis.Partial, tc.apps)
	forwarded := make([]int, tc.apps)
	pending := 0
	forward := func(final bool) error {
		for app, pp := range acc {
			if pp == nil {
				continue
			}
			n, err := shipPartial(up, pp, &forwarded[app], final)
			if err != nil {
				return fmt.Errorf("exp: aggregator %d forward: %w", local, err)
			}
			tc.tm.OnForward(n)
		}
		return nil
	}
	blocks := 0
	err = drain(rd, func(blk *vmpi.Block) error {
		t0 := time.Now()
		appID, err := analysis.PartialAppID(blk.Payload)
		if err == nil && int(appID) >= len(acc) {
			err = fmt.Errorf("partial for unknown app id %d", appID)
		}
		if err == nil {
			if acc[appID] == nil {
				acc[appID] = analysis.NewPartial(appID, tc.leafOpts[appID])
				pending++
			}
			err = acc[appID].MergeEncoded(blk.Payload)
		}
		if err != nil {
			return fmt.Errorf("exp: aggregator %d: %w", local, err)
		}
		tc.tm.OnMerge(time.Since(t0).Nanoseconds())
		tc.tm.OnIngest(tier, blk.Size)
		tc.tm.PendingPartials(pending)
		if tc.primary[blk.From] != myGlobal {
			tc.tm.OnReparent()
			tc.stats.Reparented++
		}
		tc.stats.TierIngestBytes[tier] += blk.Size
		r.Compute(tc.cost(blk.Size))
		blk.Release()
		blocks++
		if n := tc.cadence(); n > 0 && blocks%n == 0 {
			return forward(false)
		}
		return nil
	})
	if err == nil {
		err = forward(true)
	}
	if err != nil {
		return err
	}
	if err := up.Close(); err != nil {
		return err
	}
	tc.addUp(up.Stats())
	return rd.Close()
}

// rootMain drains every tier-entry channel into the application levels,
// merging each block from its bytes on this goroutine. The root
// reads its own tier's channel for the regular flow plus every lower
// channel as the last-resort failover target each writer lists, so a
// child whose whole upstream tier died still delivers.
func (tc *treeCtx) rootMain(r *mpi.Rank, sess *vmpi.Session) error {
	myGlobal := sess.Rank().Global()
	streams := make([]polled, tc.plan.Tiers())
	for c := range streams {
		s := vmpi.NewStream(sess, treeBlockBytes, vmpi.BalanceRoundRobin)
		s.SetChannel(tbon.Channel(c))
		if err := s.OpenRanks(tc.writersInto(c), "r"); err != nil {
			return err
		}
		streams[c] = polled{s, func(blk *vmpi.Block) error {
			tc.tm.OnIngest(c, blk.Size)
			if tc.primary[blk.From] != myGlobal {
				tc.tm.OnReparent()
				tc.stats.Reparented++
			}
			tc.stats.RootIngestBytes += blk.Size
			tc.stats.RootPosts++
			tc.stats.TierIngestBytes[c] += blk.Size
			if err := tc.disp.AbsorbEncoded(blk.Payload); err != nil {
				return fmt.Errorf("exp: tree root: %w", err)
			}
			r.Compute(tc.cost(blk.Size))
			blk.Release()
			return nil
		}}
	}
	if err := poll(r, "tree root read", streams...); err != nil {
		return err
	}
	for _, s := range streams {
		if err := s.st.Close(); err != nil {
			return err
		}
	}
	return nil
}
