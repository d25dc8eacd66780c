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
// into: one job decodes a pack in place and folds every event through the
// pipeline's fold list — the same list the fused v3 ingest uses, so both
// paths feed identical module sets. (The paper posts each decoded event as
// a board entry; see DESIGN §11.)
//
// Locking is per pack, not per event. Every module keeps its accumulators
// behind a mutex and has two ways in: Add (lock, fold, unlock) for a caller
// with one event and no claim on the module, and the unexported fold for a
// caller that already owns it. Exactly two kinds of caller own a module: a
// pack fold (Pipeline.FoldPack, the board's fold KS), which takes the mutex
// of every module on the fold list once, in list order, decodes the whole
// pack through the folds and releases; and the single owner of a Replica,
// whose modules nobody else can reach (EnableReplicas gives each board
// worker one). Readers — report rendering, AbsorbPartial, MergeReplica —
// take one module mutex at a time and so wait for at most one pack.
package analysis

import (
	"fmt"
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
	// TypeEOS marks the end of an application's event stream.
	TypeEOS = "eos"
	// TypeRawPartial is an encoded partial profile before level dispatch
	// (level ""), as shipped up the reduction tree.
	TypeRawPartial = "rawpartial"
	// TypePartial is a decoded *Partial on its application level.
	TypePartial = "partial"
)

// Pipeline wires the analysis modules for one application level onto a
// blackboard.
type Pipeline struct {
	bb    *blackboard.Blackboard
	level string

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

	// Optional modules, recorded when enabled so tree-mode partials can
	// be absorbed into them (AbsorbPartial).
	waits     *WaitStateModule
	temporal  *TemporalModule
	callsites *CallsiteModule
	sizes     *SizesModule
	windowed  *WindowedModule

	// tracker, when attached, observes every folded event's virtual
	// timestamp against the analyzer clock (event→report-update lag and
	// per-window completeness). It is a tap on the fold list, and
	// Pipeline.NewReplica re-wraps it into every replica's fold dispatcher
	// (a replica folds its own module set, not the list).
	tracker *WindowTracker

	mu       sync.Mutex
	finished bool
	onFinish []func()

	// folds is the published fold list: every event consumer — the
	// modules plus the taps (export proxy, window tracker) — in the order
	// it was enabled. The board's fold KS and the fused v3 ingest both
	// fold packs through it (addFold is the only writer, under foldMu), so
	// profiles are byte-identical either way.
	foldMu sync.Mutex
	folds  atomic.Pointer[foldList]

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
	p := &Pipeline{
		bb:           bb,
		level:        level,
		Profiler:     NewProfilerModule(appSize),
		Topology:     NewTopologyModule(appSize),
		Density:      NewDensityModule(appSize),
		Completeness: NewCompletenessModule(),
	}
	p.folds.Store(&foldList{})
	for _, f := range []foldEntry{
		{"profiler", &p.Profiler.mu, p.Profiler.fold},
		{"topology", &p.Topology.mu, p.Topology.fold},
		{"density", &p.Density.mu, p.Density.fold},
	} {
		if err := p.addFold(f); err != nil {
			return nil, err
		}
	}
	if err := bb.Register(blackboard.KS{
		Name:          "fold@" + level,
		Sensitivities: []blackboard.Type{blackboard.TypeID(level, TypePack)},
		OpW: func(_ *blackboard.Blackboard, worker int, in []*blackboard.Entry) {
			p.foldBoardPack(worker, in[0].Payload.([]byte))
		},
	}); err != nil {
		return nil, err
	}
	if err := bb.Register(blackboard.KS{
		Name:          "eos@" + level,
		Sensitivities: []blackboard.Type{blackboard.TypeID(level, TypeEOS)},
		Op: func(_ *blackboard.Blackboard, _ []*blackboard.Entry) {
			p.mu.Lock()
			p.finished = true
			cbs := p.onFinish
			p.mu.Unlock()
			for _, cb := range cbs {
				cb()
			}
		},
	}); err != nil {
		return nil, err
	}
	return p, nil
}

// foldEntry is one consumer on the fold list. A module enters with its
// mutex and its lock-free fold: a pack fold holds mu for the whole pack.
// A tap synchronizes itself per event and leaves mu nil.
type foldEntry struct {
	name string
	mu   *sync.Mutex
	fold func(*trace.Event)
}

// foldList is an immutable snapshot of a pipeline's consumers; dispatch
// calls every fold, in list order, for one decoded event straight from
// the decoder's in-place scratch.
type foldList struct {
	entries  []foldEntry
	dispatch func(*trace.Event)
}

// lock takes every module mutex on the list, in list order — the one
// order in which anything holds two of them, so pack folds cannot
// deadlock each other, and a reader holds only one at a time.
func (l *foldList) lock() {
	for _, e := range l.entries {
		if e.mu != nil {
			e.mu.Lock()
		}
	}
}

func (l *foldList) unlock() {
	for _, e := range l.entries {
		if e.mu != nil {
			e.mu.Unlock()
		}
	}
}

// foldBoardPack is the fold KS's operation: one job per pack. The pack
// (v1 or v2 — streams negotiate per writer, so one analyzer serves both)
// is decoded in place from the borrowed block and every event folded
// without an intermediate copy or board entry: through the fold list under
// its modules' mutexes, or, after EnableReplicas, into the executing
// worker's private replica.
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
		fl := p.folds.Load()
		fl.lock()
		defer fl.unlock()
		fn = fl.dispatch
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

// addFold appends a consumer to the fold list and republishes it. Every
// event consumer goes through here — it is what keeps the board path and
// the fused path feeding identical module sets.
func (p *Pipeline) addFold(e foldEntry) error {
	p.foldMu.Lock()
	defer p.foldMu.Unlock()
	old := p.folds.Load().entries
	for _, have := range old {
		if have.name == e.name {
			return fmt.Errorf("analysis: %q already enabled on level %q", e.name, p.level)
		}
	}
	entries := append(old[:len(old):len(old)], e)
	p.folds.Store(&foldList{entries: entries, dispatch: func(ev *trace.Event) {
		for i := range entries {
			entries[i].fold(ev)
		}
	}})
	return nil
}

// FoldPack is the fused decode→dispatch path: it decodes one pack
// through the caller's per-writer stream decoder and folds every event
// through the fold list on the calling goroutine, holding the listed
// modules' mutexes for the pack — the fold KS minus the board hop, for
// packs (v3) that must decode in per-writer order. Codec telemetry
// accounts the pack exactly like the fold KS does. Returns the event
// count.
func (p *Pipeline) FoldPack(dec *trace.StreamDecoder, buf []byte) (int, error) {
	fl := p.folds.Load()
	fl.lock()
	defer fl.unlock()
	return p.foldStreamPack(dec, buf, fl.dispatch)
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

// PostEOS marks the end of the application's stream.
func (p *Pipeline) PostEOS() {
	p.bb.Post(blackboard.TypeID(p.level, TypeEOS), 0, nil)
}

// OnFinish registers a callback invoked when the EOS entry is processed.
func (p *Pipeline) OnFinish(cb func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onFinish = append(p.onFinish, cb)
}

// Finished reports whether the EOS marker was processed.
func (p *Pipeline) Finished() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.finished
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
			p.PostPack(buf)
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
// dispatcher routes it.
func (d *Dispatcher) PostRaw(buf []byte) {
	d.bb.Post(blackboard.TypeID("", TypeRawPack), int64(len(buf)), buf)
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
	decs map[int]*trace.StreamDecoder

	// lanes, when non-empty, partition sources for lock-free parallel
	// ingest into per-lane module replicas (NewParallelFusedIngest);
	// epochPacks is the per-lane merge cadence.
	lanes      []*ingestLane
	epochPacks int

	fusedPacks  atomic.Int64
	fusedEvents atomic.Int64
	epochMerges atomic.Int64
	mergeNs     atomic.Int64
}

// NewFusedIngest wraps a dispatcher with per-writer v3 decode state.
func NewFusedIngest(d *Dispatcher) *FusedIngest {
	return &FusedIngest{d: d, decs: make(map[int]*trace.StreamDecoder)}
}

// Absorb routes one pack from writer src. v3 packs are decoded through
// the writer's persistent dictionary and folded synchronously into the
// application's modules; the return reports the buffer was consumed (the
// caller may recycle it). v1, v2 and audit packs go to the board via
// PostRaw — the board then owns the buffer — and consumed is false.
func (f *FusedIngest) Absorb(src int, buf []byte) (consumed bool, err error) {
	h, err := trace.PeekHeader(buf)
	if err != nil {
		return false, fmt.Errorf("analysis: undecodable raw pack from src %d: %w", src, err)
	}
	if h.Version != trace.PackV3 {
		f.d.PostRaw(buf)
		return false, nil
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
		dec := f.decs[src]
		if dec == nil {
			dec = &trace.StreamDecoder{}
			f.decs[src] = dec
		}
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

// PartialOptions derives the Partial module selection matching the
// pipeline's enabled modules, so leaf partials and the root pipeline
// agree on what travels up the tree.
func (p *Pipeline) PartialOptions() PartialOptions {
	opts := PartialOptions{AppSize: p.Profiler.size}
	if p.waits != nil {
		opts.WaitState = true
	}
	if p.temporal != nil {
		opts.TemporalWindowNs = p.temporal.Window()
	}
	if p.callsites != nil {
		opts.Callsites = true
	}
	if p.sizes != nil {
		opts.Sizes = true
	}
	if p.windowed != nil {
		opts.WindowNs = p.windowed.Window()
		opts.WindowSlideNs = p.windowed.Slide()
	}
	return opts
}

// AbsorbPartial folds a (typically tree-reduced) partial profile into
// the pipeline's modules: the final step that turns the root's merged
// partial into the same report the flat event pipeline would produce.
// Optional modules are merged only when enabled on the pipeline side;
// call-site labels registered on the pipeline survive (partials carry
// statistics, not label tables).
func (p *Pipeline) AbsorbPartial(pp *Partial) {
	p.Profiler.Merge(pp.Profiler)
	p.Topology.Merge(pp.Topology)
	p.Density.Merge(pp.Density)
	if p.waits != nil && pp.Waits != nil {
		p.waits.MergeFull(pp.Waits)
	}
	if p.temporal != nil && pp.Temporal != nil {
		p.temporal.Merge(pp.Temporal)
	}
	if p.callsites != nil && pp.Callsites != nil {
		p.callsites.Merge(pp.Callsites)
	}
	if p.sizes != nil && pp.Sizes != nil {
		p.sizes.Merge(pp.Sizes)
	}
	if pp.Shed != nil {
		p.Completeness.Merge(pp.Shed)
	}
	if p.windowed != nil && pp.Windows != nil {
		if err := p.windowed.Merge(pp.Windows); err != nil {
			// Geometry mismatch between a tree partial and the root
			// pipeline is a wiring bug, same class as an unregistered app.
			panic(fmt.Sprintf("analysis: absorbing partial window series: %v", err))
		}
	}
}

// PostPartial places a decoded partial on the pipeline's level, where
// the tree-fold reducer picks it up.
func (p *Pipeline) PostPartial(pp *Partial, size int64) {
	p.bb.Post(blackboard.TypeID(p.level, TypePartial), size, pp)
}

// EnablePartials registers the partial-profile unpacker: encoded
// partials arriving from the reduction tree (type "rawpartial") are
// decoded, routed by application id like raw packs, and re-posted as
// decoded partials on their application level.
func (d *Dispatcher) EnablePartials() error {
	return d.bb.Register(blackboard.KS{
		Name:          "partial-unpacker",
		Sensitivities: []blackboard.Type{blackboard.TypeID("", TypeRawPartial)},
		Op: func(_ *blackboard.Blackboard, in []*blackboard.Entry) {
			buf := in[0].Payload.([]byte)
			pp, err := DecodePartial(buf)
			if err != nil {
				panic(fmt.Sprintf("analysis: undecodable partial: %v", err))
			}
			d.mu.RLock()
			p := d.byApp[pp.AppID]
			d.mu.RUnlock()
			if p == nil {
				panic(fmt.Sprintf("analysis: partial for unregistered app id %d", pp.AppID))
			}
			p.PostPartial(pp, int64(len(buf)))
		},
	})
}

// PostRawPartial places an encoded partial profile on the board; the
// partial unpacker (EnablePartials) decodes and routes it.
func (d *Dispatcher) PostRawPartial(buf []byte) {
	d.bb.Post(blackboard.TypeID("", TypeRawPartial), int64(len(buf)), buf)
}
