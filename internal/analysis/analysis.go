// Package analysis implements the paper's analysis modules on the parallel
// blackboard: the multi-level dispatcher, the per-pack fold knowledge
// source, the MPI profiler, the topological module and the density-map
// module (paper Figures 4, 5, 17 and 18).
//
// Data-flow per application level (Figure 4):
//
//	stream block ──("rawpack")──> Dispatcher ──("pack"@level)──> Fold
//	     Fold: decode in place ──per event──> {Profiler, Topology, Density, ...}
//
// The board's unit of work is the pack, the element the stream batches
// into: one job decodes a pack in place and folds every event into the
// level's state. (The paper posts each decoded event as a board entry; see
// DESIGN §11.)
//
// A level's state is a Partial — the module set that is also a tree leaf's
// delta, a replica's private memory, a window of the series and a daemon
// session's epoch — so there is one fan-out from an event to the modules
// (Partial.fold) and one merge of two module sets (Partial.Merge, and its
// move form MergeReset). A Pipeline is that state on a board: its Enable*
// methods add the optional modules to it, and what is not a module — the
// export proxy, the window tracker — attaches as a tap behind the fold.
//
// Locking is per pack, not per event. Every module keeps its accumulators
// behind a mutex and has two ways in: Add (lock, fold, unlock) for a caller
// with one event and no claim on the module, and the unexported fold for a
// caller that already owns it. Exactly two kinds of caller own a module: a
// pack fold (Pipeline.FoldPack, the board's fold KS), which takes the mutex
// of every module of the state once, in the order Partial declares them,
// decodes the whole pack through Partial.fold and releases; and the single
// owner of a Replica, whose modules nobody else can reach (a board worker
// after EnableReplicas, a fused lane, a daemon session or lane, a tree
// leaf). Readers — report rendering, AbsorbEncoded, MergeReplica — take one
// module mutex at a time and so wait for at most one pack.
package analysis

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blackboard"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Data-type names used on the board.
const (
	// TypeRawPack is an encoded pack before level dispatch (level "").
	TypeRawPack = "rawpack"
	// TypePack is an encoded pack on its application level.
	TypePack = "pack"
)

// Pipeline wires the analysis modules for one application level onto a
// blackboard.
type Pipeline struct {
	bb    *blackboard.Blackboard
	level string

	// state is the level's canonical module set: what the pack folds write,
	// what replicas and tree partials merge into, what the report reads.
	// The exported module fields below alias its modules.
	state *Partial

	// Profiler reduces events to per-call-type statistics.
	Profiler *ProfilerModule
	// Topology accumulates the point-to-point communication matrix.
	Topology *TopologyModule
	// Density accumulates per-rank call statistics for density maps.
	Density *DensityModule

	// Completeness accumulates the shed ledgers from audit packs (flat
	// path) and partial shed sections (tree path): the loss accounting
	// behind the report's completeness bounds. Always present; empty
	// unless an admission gate shed events.
	Completeness *CompletenessModule

	// tracker, when attached, observes every folded event's virtual
	// timestamp against the analyzer clock (event→report-update lag and
	// per-window completeness): a tap on the locked pack folds and, through
	// Pipeline.NewReplica, on every replica's.
	tracker *WindowTracker

	// foldFn is what a locked pack fold calls per event: state.fold, then
	// the taps — the event consumers that are not modules and synchronize
	// themselves (export proxies, the window tracker) — in the order they
	// attached. addTap is its only writer (under mu, with the names it has
	// attached in taps); the board's fold KS and the fused ingest both load
	// it, so profiles are byte-identical either way.
	mu     sync.Mutex
	taps   []string
	foldFn atomic.Pointer[func(*trace.Event)]

	// Replica mode (EnableReplicas): exports counts export proxies
	// (incompatible with replicas); reps, non-nil once enabled, holds one
	// private module replica per board worker, indexed by worker id,
	// merged every epochEvents events and at Settle.
	exports     int
	epochEvents int
	reps        []*Replica
	rm          *telemetry.ReplicaMetrics

	// codec, when attached, accounts each folded pack's event count and
	// wall-clock decode+fold time. Set it before the first pack is posted;
	// the board's queue ordering then publishes it to the worker pool.
	codec *telemetry.CodecMetrics
}

// SetCodecTelemetry attaches a codec telemetry bundle to the pack folds
// (nil allowed and free). Call before posting packs.
func (p *Pipeline) SetCodecTelemetry(m *telemetry.CodecMetrics) { p.codec = m }

// SetReplicaTelemetry attaches a replica telemetry bundle (nil allowed
// and free). Call before EnableReplicas.
func (p *Pipeline) SetReplicaTelemetry(m *telemetry.ReplicaMetrics) { p.rm = m }

// NewPipeline registers the per-pack fold KS and the three analysis
// modules for an application of the given rank count under the given level
// name.
func NewPipeline(bb *blackboard.Blackboard, level string, appSize int) (*Pipeline, error) {
	// Replicas and inner windows fold under application id 0, and so does
	// the state they merge into; the ledger exists from the start because
	// Completeness is a field callers read unconditionally.
	state := NewPartial(0, PartialOptions{AppSize: appSize})
	state.Shed = NewCompletenessModule()
	p := &Pipeline{
		bb:           bb,
		level:        level,
		state:        state,
		Profiler:     state.Profiler,
		Topology:     state.Topology,
		Density:      state.Density,
		Completeness: state.Shed,
	}
	fold := state.fold
	p.foldFn.Store(&fold)
	if err := bb.Register(blackboard.KS{
		Name:          "fold@" + level,
		Sensitivities: []blackboard.Type{blackboard.TypeID(level, TypePack)},
		OpW: func(_ *blackboard.Blackboard, worker int, in []*blackboard.Entry) {
			p.foldBoardPack(worker, in[0].Payload.([]byte))
		},
	}); err != nil {
		return nil, err
	}
	return p, nil
}

// foldBoardPack is the fold KS's operation: one job per pack. The pack
// (v1 or v2 — streams negotiate per writer, so one analyzer serves both)
// is decoded in place from the borrowed block and every event folded
// without an intermediate copy or board entry: into the state under its
// modules' mutexes, or, after EnableReplicas, into the executing worker's
// private replica.
func (p *Pipeline) foldBoardPack(worker int, buf []byte) {
	var fn func(*trace.Event)
	var rep *Replica
	if p.reps != nil {
		// Each slot is touched only by its owning worker.
		if rep = p.reps[worker]; rep == nil {
			rep = p.NewReplica()
			p.reps[worker] = rep
		}
		fn = rep.foldFn
	} else {
		p.state.lock()
		defer p.state.unlock()
		fn = *p.foldFn.Load()
	}
	var t0 time.Time
	if p.codec != nil {
		t0 = time.Now()
	}
	h, err := trace.DecodeEach(buf, fn)
	if err != nil {
		panic(fmt.Sprintf("analysis: undecodable pack on level %q: %v", p.level, err))
	}
	if p.codec != nil {
		p.codec.OnDecode(h.Count, time.Since(t0).Nanoseconds())
	}
	if rep != nil {
		if rep.pending += h.Count; rep.pending >= p.epochEvents {
			p.MergeReplica(rep)
		}
	}
}

// addTap attaches an event consumer that is not a module behind the state's
// fold and republishes the dispatcher; fn synchronizes itself. This is the
// only place such consumers attach, so the board path and the fused path
// feed the same ones.
func (p *Pipeline) addTap(name string, fn func(*trace.Event)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if slices.Contains(p.taps, name) {
		return p.alreadyEnabled(name)
	}
	p.taps = append(p.taps, name)
	next := tapped(*p.foldFn.Load(), fn)
	p.foldFn.Store(&next)
	return nil
}

func (p *Pipeline) alreadyEnabled(name string) error {
	return fmt.Errorf("analysis: %q already enabled on level %q", name, p.level)
}

// FoldPack is the fused decode→dispatch path: it decodes one pack
// through the caller's per-writer stream decoder and folds every event
// into the state on the calling goroutine, holding its modules' mutexes
// for the pack — the fold KS minus the board hop, for packs (v3) that must
// decode in per-writer order. Codec telemetry accounts the pack exactly
// like the fold KS does. Returns the event count.
func (p *Pipeline) FoldPack(dec *trace.StreamDecoder, buf []byte) (int, error) {
	p.state.lock()
	defer p.state.unlock()
	return p.foldStreamPack(dec, buf, *p.foldFn.Load())
}

func (p *Pipeline) foldStreamPack(dec *trace.StreamDecoder, buf []byte, fn func(*trace.Event)) (int, error) {
	var t0 time.Time
	if p.codec != nil {
		t0 = time.Now()
	}
	n, err := dec.DecodeDispatch(buf, fn)
	if err != nil {
		return n, fmt.Errorf("analysis: undecodable pack on level %q: %w", p.level, err)
	}
	if p.codec != nil {
		p.codec.OnDecode(n, time.Since(t0).Nanoseconds())
	}
	return n, nil
}

// Level returns the pipeline's level name.
func (p *Pipeline) Level() string { return p.level }

// PostPack places an encoded pack on the pipeline's level.
func (p *Pipeline) PostPack(buf []byte) {
	p.bb.Post(blackboard.TypeID(p.level, TypePack), int64(len(buf)), buf)
}

// Dispatcher is the multi-level KS of the paper's Figure 5: it reads each
// raw pack's application id and re-posts the pack on the matching
// application level, so one engine concurrently profiles several programs.
type Dispatcher struct {
	bb *blackboard.Blackboard
	mu sync.RWMutex
	// byApp maps pack AppIDs to pipelines.
	byApp map[uint32]*Pipeline
}

// NewDispatcher registers the dispatching KS on the board.
func NewDispatcher(bb *blackboard.Blackboard) (*Dispatcher, error) {
	d := &Dispatcher{bb: bb, byApp: make(map[uint32]*Pipeline)}
	err := bb.Register(blackboard.KS{
		Name:          "dispatcher",
		Sensitivities: []blackboard.Type{blackboard.TypeID("", TypeRawPack)},
		Op: func(_ *blackboard.Blackboard, in []*blackboard.Entry) {
			buf := in[0].Payload.([]byte)
			h, err := trace.PeekHeader(buf)
			if err != nil {
				panic(fmt.Sprintf("analysis: undecodable raw pack: %v", err))
			}
			d.mu.RLock()
			p := d.byApp[h.AppID]
			d.mu.RUnlock()
			if p == nil {
				panic(fmt.Sprintf("analysis: pack for unregistered app id %d", h.AppID))
			}
			if h.Version == trace.PackV3 {
				// v3 packs need per-writer decode order, which the board's
				// worker pool deliberately does not preserve. Reaching this
				// KS means a caller routed a v3 pack through PostRaw
				// instead of FusedIngest.Absorb — fail loudly before a
				// dictionary gap mis-attributes events downstream.
				panic(fmt.Sprintf("analysis: v3 pack for app %d posted to the blackboard; v3 requires ordered stream ingest (FusedIngest)", h.AppID))
			}
			if h.Version == trace.PackAudit {
				// A recorder's shed ledger rides the data stream; it feeds
				// the completeness accounting, not the event pipeline.
				_, entries, err := trace.DecodeAuditPack(buf)
				if err != nil {
					panic(fmt.Sprintf("analysis: undecodable audit pack: %v", err))
				}
				p.Completeness.AddAudit(entries)
				return
			}
			// The level entry holds the raw one, so a handed-over pack goes
			// back to the pool only once its fold KS is done with it.
			d.bb.PostFrom(in[0], blackboard.TypeID(p.level, TypePack), int64(len(buf)), buf)
		},
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// AddApp creates (and wires) a pipeline for an application id under the
// given level name.
func (d *Dispatcher) AddApp(appID uint32, level string, appSize int) (*Pipeline, error) {
	p, err := NewPipeline(d.bb, level, appSize)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.byApp[appID] = p
	d.mu.Unlock()
	return p, nil
}

// Pipeline returns the pipeline registered for an application id, or nil.
func (d *Dispatcher) Pipeline(appID uint32) *Pipeline {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.byApp[appID]
}

// PostRaw places an encoded pack of unknown level on the board; the
// dispatcher routes it. The pack is lent: the board never recycles it.
func (d *Dispatcher) PostRaw(buf []byte) { d.postRaw(buf, nil) }

// postRaw is PostRaw that, with a non-nil release, takes the pack over:
// release gets it back once the last entry that references it is released.
func (d *Dispatcher) postRaw(buf []byte, release func([]byte)) {
	var free func()
	if release != nil {
		free = func() { release(buf) }
	}
	d.bb.PostOwned(blackboard.TypeID("", TypeRawPack), int64(len(buf)), buf, free)
}

// FusedIngest is the analyzer-side entry point for v3 streams: one
// stateful trace.StreamDecoder per writer, fused decode→fold on the
// ingest goroutine, and transparent fallback to the blackboard path for
// formats that need no cross-pack state. It exists because v3 packs must
// decode in per-writer emission order — an ordering the stream layer
// guarantees at the ingest loop and the board's worker pool does not.
//
// Concurrency contract: distinct sources may be absorbed concurrently
// (the decoder map is locked, the analysis modules lock themselves), but
// each source's packs must be absorbed serially in delivery order —
// which is exactly how a stream read loop behaves.
type FusedIngest struct {
	d    *Dispatcher
	mu   sync.Mutex
	decs trace.Decoders

	// lanes, when non-empty, partition sources for lock-free parallel
	// ingest into per-lane module replicas (NewParallelFusedIngest);
	// epochPacks is the per-lane merge cadence.
	lanes      []*ingestLane
	epochPacks int

	fusedPacks  atomic.Int64
	fusedEvents atomic.Int64
}

// NewFusedIngest wraps a dispatcher with per-writer v3 decode state.
func NewFusedIngest(d *Dispatcher) *FusedIngest {
	return &FusedIngest{d: d, decs: make(trace.Decoders)}
}

// Absorb routes one pack from writer src. v3 packs are decoded through
// the writer's persistent dictionary and folded synchronously into the
// application's modules; the return reports the buffer was consumed (the
// caller may reuse it). v1, v2 and audit packs go to the board via
// PostRaw, which reads the buffer until the board drains, and consumed is
// false. The pack is lent either way: Absorb never recycles it.
func (f *FusedIngest) Absorb(src int, buf []byte) (consumed bool, err error) {
	return f.absorb(src, buf, nil)
}

// HandOver is Absorb for a pack whose storage the caller hands over: it
// goes back to the trace pack pool once the analysis is done with it —
// when the fused fold returns, or when the board releases the last entry
// that references it. The caller must not touch buf afterwards.
func (f *FusedIngest) HandOver(src int, buf []byte) error {
	_, err := f.absorb(src, buf, trace.PutBuffer)
	return err
}

// absorb is Absorb and HandOver: release is nil for a lent pack.
func (f *FusedIngest) absorb(src int, buf []byte, release func([]byte)) (consumed bool, err error) {
	h, err := trace.PeekHeader(buf)
	if err == nil && h.Version != trace.PackV3 {
		f.d.postRaw(buf, release)
		return false, nil
	}
	if release != nil {
		defer release(buf)
	}
	if err != nil {
		return false, fmt.Errorf("analysis: undecodable raw pack from src %d: %w", src, err)
	}
	p := f.d.Pipeline(h.AppID)
	if p == nil {
		return false, fmt.Errorf("analysis: v3 pack for unregistered app id %d", h.AppID)
	}
	var n int
	if len(f.lanes) > 0 {
		n, err = f.absorbLane(p, src, buf)
	} else {
		f.mu.Lock()
		dec := f.decs.For(src)
		f.mu.Unlock()
		n, err = p.FoldPack(dec, buf)
	}
	if err != nil {
		return true, err
	}
	f.fusedPacks.Add(1)
	f.fusedEvents.Add(int64(n))
	return true, nil
}

// FusedPacks returns how many packs took the fused path.
func (f *FusedIngest) FusedPacks() int64 { return f.fusedPacks.Load() }

// FusedEvents returns how many events were folded on the fused path.
func (f *FusedIngest) FusedEvents() int64 { return f.fusedEvents.Load() }

// PartialOptions returns the module selection of the pipeline's state, so
// leaf partials, replicas and the root pipeline agree on what they carry.
func (p *Pipeline) PartialOptions() PartialOptions { return p.state.Options() }

// AbsorbEncoded folds an encoded partial profile — a tree leaf's or
// aggregator's flush, as it arrives at the root — into the state of the
// application its header names, straight from the bytes (Partial.
// MergeEncoded: validate, then apply, so an error leaves the state as it
// was). The header's application id only routes: a level's state folds
// under id 0. The module selection must be the pipeline's own. Safe beside
// pack folds and report rendering; call-site labels registered on the
// pipeline survive (partials carry statistics, not label tables).
func (d *Dispatcher) AbsorbEncoded(buf []byte) error {
	appID, err := PartialAppID(buf)
	if err != nil {
		return err
	}
	p := d.Pipeline(appID)
	if p == nil {
		return fmt.Errorf("analysis: partial for unregistered app id %d", appID)
	}
	return p.state.mergeEncoded(buf, appID)
}
