package analysis

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/trace"
)

// This file is the lock-free parallel analysis layer: per-worker module
// replicas folding events into private memory, merged into the canonical
// modules on epoch boundaries.
//
// The flat path serializes pack folds on the modules' mutexes (held per
// pack, see Pipeline.FoldPack) — concurrent sources queue behind one
// another. But PR 5 already made every module's state associative-
// commutative mergeable (the Partial machinery), so the fix is structural,
// not lock-tuning: give each worker its own replica of the module set,
// fold without any synchronization, and run the existing merge on epoch
// boundaries. Merge order and cadence cannot change the result — that is
// exactly the property the reduction tree is built on, and the canonical
// sparse key-sorted Partial encoding makes it checkable byte-for-byte.

// DefaultEpochEvents is the board-path epoch length: how many events a
// worker's replica folds before merging into the canonical modules (checked
// at pack boundaries).
const DefaultEpochEvents = 8192

// DefaultEpochPacks is the fused-path epoch length: how many packs an
// ingest lane folds before merging its replicas.
const DefaultEpochPacks = 64

// Replica is one worker's private module set: the existing module states
// minus their mutexes. Fold writes only replica-local memory, so a worker
// folding into its own replica takes no locks at all.
//
// Concurrency contract: a Replica is single-owner. Either one goroutine
// folds into it, or its owner is externally synchronized (the board's
// worker id, an ingest lane's mutex). Merging transfers the accumulated
// state into a canonical (locked) module set and resets the replica in
// place, reusing its allocated maps and buckets — steady-state fold and
// merge allocate nothing.
type Replica struct {
	pp *Partial
	// foldFn is the cached per-event dispatcher. Built once at
	// construction so the fused decode loop passes a stable func value
	// (no per-pack closure allocation).
	foldFn func(*trace.Event)
	// pending counts events folded since the last merge (board path,
	// advanced once per pack).
	pending int
}

// NewReplica creates a replica for an application of the given module
// selection.
func NewReplica(appID uint32, opts PartialOptions) *Replica {
	pp := NewPartial(appID, opts)
	return &Replica{pp: pp, foldFn: pp.fold}
}

// Tap makes every later fold also hand the event to fn, after the modules:
// how an observer that is not a module (the window tracker) rides a fold
// path that bypasses the pipeline's. Call before the first fold; fn
// synchronizes itself if it is shared between replicas.
func (r *Replica) Tap(fn func(*trace.Event)) { r.foldFn = tapped(r.foldFn, fn) }

// tapped returns the dispatcher that folds an event, then hands it to tap.
func tapped(fold, tap func(*trace.Event)) func(*trace.Event) {
	return func(ev *trace.Event) {
		fold(ev)
		tap(ev)
	}
}

// Fold folds one event into the replica without locking.
func (r *Replica) Fold(ev *trace.Event) { r.foldFn(ev) }

// FoldFunc returns the replica's per-event fold dispatcher (a stable
// func value, suitable for trace.StreamDecoder.DecodeDispatch).
func (r *Replica) FoldFunc() func(*trace.Event) { return r.foldFn }

// Partial returns the replica's underlying partial profile.
func (r *Replica) Partial() *Partial { return r.pp }

// NewReplica creates a replica matching the pipeline's state. Call after
// every Enable* the run will use. An attached window tracker is tapped in:
// replicas bypass the pipeline's fold, so the lag observer must ride the
// replica's own.
func (p *Pipeline) NewReplica() *Replica {
	r := NewReplica(0, p.PartialOptions())
	if tr := p.WindowTracker(); tr != nil {
		r.Tap(tr.OnEvent)
	}
	return r
}

// MergeReplica folds a replica's accumulated state into the pipeline's
// state and resets the replica in place (its maps and buckets stay
// allocated for the next epoch). Safe to call concurrently for distinct
// replicas: only the canonical side locks.
func (p *Pipeline) MergeReplica(r *Replica) {
	var t0 time.Time
	if p.rm != nil {
		t0 = time.Now()
	}
	p.state.mergeReset(r.pp)
	r.pending = 0
	if p.rm != nil {
		p.rm.OnEpochMerge(time.Since(t0).Nanoseconds())
	}
}

// EnableReplicas switches the pipeline's board path to shared-nothing
// parallel folding: the fold KS stops folding into the state directly
// (where pack folds queue on the module mutexes) and folds each pack into
// the executing worker's private replica, merging into the state once
// epochEvents events accumulated (0 = default). Call after
// every Enable* the run will use and before any pack flows; call Settle
// after the board drains to merge the residue.
//
// Trace export is incompatible (the exporter is an IO proxy, not a
// mergeable module), as is enabling further modules afterwards.
func (p *Pipeline) EnableReplicas(epochEvents int) error {
	if epochEvents <= 0 {
		epochEvents = DefaultEpochEvents
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.reps != nil {
		return fmt.Errorf("analysis: replicas already enabled on level %q", p.level)
	}
	if p.exports > 0 {
		return fmt.Errorf("analysis: replicas are incompatible with trace export on level %q", p.level)
	}
	// Workers fill the table lazily; posting a pack is the happens-before
	// edge that publishes it to them.
	p.epochEvents = epochEvents
	p.reps = make([]*Replica, p.bb.Workers())
	if p.rm != nil {
		p.rm.Replicas(len(p.reps))
	}
	return nil
}

// Settle merges every board-worker replica's residue into the canonical
// modules. Call after the board drains (Drain's completion is the
// happens-before edge that hands the workers' replicas to the caller);
// any snapshot, report or module read after Settle sees exactly what the
// flat path would have produced.
func (p *Pipeline) Settle() {
	p.mu.Lock()
	reps := p.reps
	p.mu.Unlock()
	for _, rep := range reps {
		if rep != nil && rep.pending > 0 {
			p.MergeReplica(rep)
		}
	}
}

// FoldPackReplica is FoldPack targeting a private replica instead of the
// shared modules: the same fused decode, but the per-event fold touches
// only replica-local memory. The caller owns rep (see Replica).
func (p *Pipeline) FoldPackReplica(rep *Replica, dec *trace.StreamDecoder, buf []byte) (int, error) {
	return p.foldStreamPack(dec, buf, rep.foldFn)
}

// --- parallel fused ingest ---

// ingestLane is one partition of a parallel FusedIngest: sources hash to
// lanes (src mod lanes), so one source's packs always decode on the same
// lane — preserving the per-writer decode order v3 dictionaries need —
// while distinct lanes share no mutable state. The lane mutex serializes
// concurrent producers that happen to share a lane; it is taken once per
// pack, not per event, so it amortizes to nothing at pack granularity.
type ingestLane struct {
	mu    sync.Mutex
	decs  trace.Decoders
	reps  map[*Pipeline]*Replica
	packs int
}

// NewParallelFusedIngest wraps a dispatcher with lane-partitioned v3
// ingest: lanes concurrent callers, each folding into private replicas
// merged into the canonical modules every epochPacks packs per lane
// (0 = default) and at Sync. With lanes <= 1 it degrades to the plain
// serial FusedIngest.
func NewParallelFusedIngest(d *Dispatcher, lanes, epochPacks int) *FusedIngest {
	f := NewFusedIngest(d)
	if lanes <= 1 {
		return f
	}
	if epochPacks <= 0 {
		epochPacks = DefaultEpochPacks
	}
	f.epochPacks = epochPacks
	f.lanes = make([]*ingestLane, lanes)
	for i := range f.lanes {
		f.lanes[i] = &ingestLane{
			decs: make(trace.Decoders),
			reps: make(map[*Pipeline]*Replica),
		}
	}
	return f
}

// absorbLane folds one v3 pack on the source's lane. Called from Absorb
// when lanes are configured.
func (f *FusedIngest) absorbLane(p *Pipeline, src int, buf []byte) (int, error) {
	lane := f.lanes[src%len(f.lanes)]
	lane.mu.Lock()
	defer lane.mu.Unlock()
	rep := lane.reps[p]
	if rep == nil {
		rep = p.NewReplica()
		lane.reps[p] = rep
	}
	n, err := p.FoldPackReplica(rep, lane.decs.For(src), buf)
	if err != nil {
		return n, err
	}
	lane.packs++
	if lane.packs >= f.epochPacks {
		lane.packs = 0
		f.mergeLaneLocked(lane)
	}
	return n, nil
}

// mergeLaneLocked merges every replica on the lane into its pipeline's
// canonical modules. Called with the lane mutex held.
func (f *FusedIngest) mergeLaneLocked(lane *ingestLane) {
	for p, rep := range lane.reps {
		p.MergeReplica(rep)
	}
}

// Sync merges every lane's replica residue into the canonical modules.
// Call once all producers stopped (and after the board drains, for the
// non-v3 packs that took the board path): afterwards snapshots, reports
// and module reads see exactly what serial ingest would have produced.
func (f *FusedIngest) Sync() {
	for _, lane := range f.lanes {
		lane.mu.Lock()
		lane.packs = 0
		f.mergeLaneLocked(lane)
		lane.mu.Unlock()
	}
}
