package analysis

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/trace"
)

// Partial is a partial profile: the per-leaf (and per-aggregator) unit of
// reduction in the multi-level analysis tree. A leaf analyzer folds its
// slice of an application's event stream into a Partial, ships the
// encoded bytes up the tree, and every interior aggregator merges the
// partials of its children — associative, commutative and
// identity-preserving, so the tree may combine them in any shape or
// order and still reproduce the flat single-blackboard profile exactly.
//
// The wait-state module is the one stateful case: matched pairs are
// settled statistics (plain sums), but unmatched send/recv queues must
// travel with the partial so cross-leaf channels pair at the first
// common ancestor. Flush therefore distinguishes periodic delta flushes
// (settled sums only; pending queues stay behind to keep local pairing
// exact) from the final flush at stream end (queues included).
type Partial struct {
	// AppID is the instrumented application the events belong to.
	AppID uint32

	opts PartialOptions

	// Core modules, always present (the report's mandatory chapters).
	Profiler *ProfilerModule
	Topology *TopologyModule
	Density  *DensityModule

	// Optional modules, present per opts.
	Waits     *WaitStateModule
	Temporal  *TemporalModule
	Callsites *CallsiteModule
	Sizes     *SizesModule

	// Windows is the time-resolved series: one inner per-window Partial
	// per virtual-time window (see WindowedModule). Present when
	// opts.WindowNs > 0; travels with the partial so tree leaves seal
	// windows below the root and replicas carry them through epoch merges.
	Windows *WindowedModule

	// Shed carries the load-shedding ledger folded from audit packs (nil
	// until one arrives). Unlike the modules above it is data-driven, not
	// option-driven: it appears exactly when shedding occurred, so
	// non-shedding runs encode byte-identical partials with or without an
	// admission gate in the path.
	Shed *CompletenessModule

	// listed is set on a series' inner per-window partial while the series
	// has it in its written list (see WindowedModule).
	listed bool
}

// PartialOptions selects which analysis modules a Partial carries; it
// must match across every partial of one application (and the root
// pipeline's enabled modules).
type PartialOptions struct {
	// AppSize is the application's rank count.
	AppSize int
	// WaitState enables the late-sender analysis.
	WaitState bool
	// TemporalWindowNs enables the temporal map with the given bucket
	// width (0 = off).
	TemporalWindowNs int64
	// Callsites enables the per-call-site breakdown.
	Callsites bool
	// Sizes enables the message-size histogram.
	Sizes bool
	// WindowNs enables the time-resolved window series with the given
	// window width in virtual nanoseconds (0 = off).
	WindowNs int64
	// WindowSlideNs is the window slide; NewPartial normalizes it to
	// (0, WindowNs] — any value outside that range (including 0) means
	// tumbling windows, i.e. slide == width. Ignored when WindowNs == 0.
	WindowSlideNs int64
}

// NewPartial creates an empty partial profile. Window options are
// normalized: with WindowNs > 0 the slide snaps into (0, WindowNs]
// (anything outside means tumbling), with WindowNs == 0 the slide is
// zeroed — so equal effective configurations compare equal as opts.
func NewPartial(appID uint32, opts PartialOptions) *Partial {
	if opts.WindowNs > 0 {
		if opts.WindowSlideNs <= 0 || opts.WindowSlideNs > opts.WindowNs {
			opts.WindowSlideNs = opts.WindowNs
		}
	} else {
		opts.WindowNs, opts.WindowSlideNs = 0, 0
	}
	pp := &Partial{
		AppID:    appID,
		opts:     opts,
		Profiler: NewProfilerModule(opts.AppSize),
		Topology: NewTopologyModule(opts.AppSize),
		Density:  NewDensityModule(opts.AppSize),
	}
	if opts.WaitState {
		pp.Waits = NewWaitStateModule(opts.AppSize)
	}
	if opts.TemporalWindowNs > 0 {
		pp.Temporal = NewTemporalModule(opts.TemporalWindowNs)
	}
	if opts.Callsites {
		pp.Callsites = NewCallsiteModule()
	}
	if opts.Sizes {
		pp.Sizes = NewSizesModule()
	}
	if opts.WindowNs > 0 {
		pp.Windows = NewWindowedModule(opts.WindowNs, opts.WindowSlideNs, innerWindowOptions(opts))
	}
	return pp
}

// Options returns the partial's module selection.
func (pp *Partial) Options() PartialOptions { return pp.opts }

// AddEvent folds one decoded event into every enabled module, for a
// caller with no claim on them.
func (pp *Partial) AddEvent(ev *trace.Event) {
	pp.lock()
	pp.fold(ev)
	pp.unlock()
}

// fold is the one fan-out from an event to the modules, for a caller that
// owns them all: a replica's single owner, a window series folding its
// inner partials, or a pack fold between lock and unlock.
func (pp *Partial) fold(ev *trace.Event) {
	pp.Profiler.fold(ev)
	pp.Topology.fold(ev)
	pp.Density.fold(ev)
	if pp.Waits != nil {
		pp.Waits.fold(ev)
	}
	if pp.Temporal != nil {
		pp.Temporal.fold(ev)
	}
	if pp.Callsites != nil {
		pp.Callsites.fold(ev)
	}
	if pp.Sizes != nil {
		pp.Sizes.fold(ev)
	}
	if pp.Windows != nil {
		pp.Windows.fold(ev)
	}
}

// lock takes the mutex of every module fold writes, in the order the type
// declares them — the one order in which anything holds two of them, so
// pack folds cannot deadlock each other, and a reader holds only one at a
// time.
func (pp *Partial) lock() {
	pp.Profiler.mu.Lock()
	pp.Topology.mu.Lock()
	pp.Density.mu.Lock()
	if pp.Waits != nil {
		pp.Waits.mu.Lock()
	}
	if pp.Temporal != nil {
		pp.Temporal.mu.Lock()
	}
	if pp.Callsites != nil {
		pp.Callsites.mu.Lock()
	}
	if pp.Sizes != nil {
		pp.Sizes.mu.Lock()
	}
	if pp.Windows != nil {
		pp.Windows.mu.Lock()
	}
}

func (pp *Partial) unlock() {
	pp.Profiler.mu.Unlock()
	pp.Topology.mu.Unlock()
	pp.Density.mu.Unlock()
	if pp.Waits != nil {
		pp.Waits.mu.Unlock()
	}
	if pp.Temporal != nil {
		pp.Temporal.mu.Unlock()
	}
	if pp.Callsites != nil {
		pp.Callsites.mu.Unlock()
	}
	if pp.Sizes != nil {
		pp.Sizes.mu.Unlock()
	}
	if pp.Windows != nil {
		pp.Windows.mu.Unlock()
	}
}

// mergeable refuses a partial of another application (want is the id the
// receiver takes it under) or module selection, given by its identity, so
// an encoded one can be checked from its header.
func (pp *Partial) mergeable(want, appID uint32, opts PartialOptions) error {
	if want != appID {
		return fmt.Errorf("analysis: merging partials of different apps (%d vs %d)", want, appID)
	}
	if pp.opts != opts {
		return fmt.Errorf("analysis: merging partials with different module selections (%+v vs %+v)", pp.opts, opts)
	}
	return nil
}

// Merge folds another partial of the same application into this one,
// copying o's state module by module. Wait-state pending queues are carried
// over and re-paired (MergeFull), which is what makes the operation
// associative and commutative.
func (pp *Partial) Merge(o *Partial) error {
	if err := pp.mergeable(pp.AppID, o.AppID, o.opts); err != nil {
		return err
	}
	pp.Profiler.Merge(o.Profiler)
	pp.Topology.Merge(o.Topology)
	pp.Density.Merge(o.Density)
	if o.Shed != nil {
		if pp.Shed == nil {
			pp.Shed = NewCompletenessModule()
		}
		pp.Shed.Merge(o.Shed)
	}
	// Equal selections: what pp carries, o carries.
	if pp.Waits != nil {
		pp.Waits.MergeFull(o.Waits)
	}
	if pp.Temporal != nil {
		pp.Temporal.Merge(o.Temporal)
	}
	if pp.Callsites != nil {
		pp.Callsites.Merge(o.Callsites)
	}
	if pp.Sizes != nil {
		pp.Sizes.Merge(o.Sizes)
	}
	if pp.Windows != nil {
		return pp.Windows.Merge(o.Windows)
	}
	return nil
}

// MergeReset folds another partial of the same application into this one
// and resets o to empty in place, keeping o's allocated maps, slices and
// queue backing arrays for reuse. It is the epoch-merge form of Merge:
// same result (Merge copies, MergeReset moves), but a steady-state merge
// of a replica allocates nothing — no re-encoding, no snapshot copies.
// The caller must own o exclusively (it is a paused replica).
func (pp *Partial) MergeReset(o *Partial) error {
	if err := pp.mergeable(pp.AppID, o.AppID, o.opts); err != nil {
		return err
	}
	pp.mergeReset(o)
	return nil
}

// mergeReset is MergeReset without the identity check, for every module
// both sides carry (Pipeline.MergeReplica: a replica may predate an
// Enable*).
func (pp *Partial) mergeReset(o *Partial) {
	pp.Profiler.mergeReset(o.Profiler)
	pp.Topology.mergeReset(o.Topology)
	pp.Density.mergeReset(o.Density)
	if o.Shed != nil {
		if pp.Shed == nil {
			pp.Shed = NewCompletenessModule()
		}
		pp.Shed.mergeReset(o.Shed)
	}
	if pp.Waits != nil && o.Waits != nil {
		pp.Waits.mergeResetFull(o.Waits)
	}
	if pp.Temporal != nil && o.Temporal != nil {
		pp.Temporal.mergeReset(o.Temporal)
	}
	if pp.Callsites != nil && o.Callsites != nil {
		pp.Callsites.mergeReset(o.Callsites)
	}
	if pp.Sizes != nil && o.Sizes != nil {
		pp.Sizes.mergeReset(o.Sizes)
	}
	if pp.Windows != nil && o.Windows != nil {
		pp.Windows.mergeReset(o.Windows)
	}
}

// --- wire format ---
//
// Little-endian, sequential sections behind a 4-byte magic. Every map is
// encoded sparse and key-sorted, so two partials with equal contents
// produce identical bytes regardless of the merge order that built them
// — the canonical form the property tests compare. Empty entries (a
// zero Stat, a kind with no non-zero rank) never travel: a reset flush
// zeroes modules in place and keeps their keys, so "key present" must
// not leak into the bytes.

var partialMagic = [4]byte{'V', 'P', 'P', '1'}

// maxDecodedAppSize caps the app size a decoded partial may claim. The
// bound matters: a topology section materializes the dense 24*N^2-byte
// matrix, so an unchecked wire header is a one-frame memory bomb
// (N = 1<<24 maps ~6 PB). 1<<12 covers the paper's largest application
// partition (2560 procs) with a ~400 MB worst case.
const maxDecodedAppSize = 1 << 12

// maxDecodedTemporalBuckets caps both the bucket count a decoded
// temporal map may claim and the dense Stat cells it may materialize
// across kinds. The bucket count sizes read-time series slices and the
// per-kind arrays are dense up to the highest index an entry names, so
// without the cap a sub-kilobyte payload forces multi-gigabyte
// allocations. 1<<20 buckets is a week of runtime at the default 10 ms
// temporal window — far past any real run.
const maxDecodedTemporalBuckets = 1 << 20

const (
	flagWait uint32 = 1 << iota
	flagTemporal
	flagCallsites
	flagSizes
	flagPendings
	flagShed
	flagWindowed
)

// AppendCanonical appends the partial's full canonical encoding
// (pending wait-state queues included) to buf without mutating any
// module — the comparison form.
func (pp *Partial) AppendCanonical(buf []byte) []byte {
	return pp.encode(buf, true, false)
}

// Flush appends the partial's encoding to buf and clears what was
// encoded, in place: cells, rows and map entries are zeroed as they are
// written and their storage is kept, so folding the next epoch into a
// flushed partial allocates nothing that scales with the app size. A
// non-final flush carries only settled statistics and leaves the
// wait-state pending queues in place (so later local events still pair
// exactly); the final flush at stream end carries and clears the queues
// too.
func (pp *Partial) Flush(buf []byte, final bool) []byte {
	return pp.encode(buf, final, true)
}

func (pp *Partial) encode(buf []byte, pendings, reset bool) []byte {
	w := pwriter{buf: buf}
	w.buf = append(w.buf, partialMagic[:]...)
	w.u32(pp.AppID)
	w.u32(uint32(pp.opts.AppSize))
	var flags uint32
	if pp.opts.WaitState {
		flags |= flagWait
	}
	if pp.opts.TemporalWindowNs > 0 {
		flags |= flagTemporal
	}
	if pp.opts.Callsites {
		flags |= flagCallsites
	}
	if pp.opts.Sizes {
		flags |= flagSizes
	}
	if pendings {
		flags |= flagPendings
	}
	shed := pp.Shed != nil && !pp.Shed.Empty()
	if shed {
		flags |= flagShed
	}
	if pp.Windows != nil {
		flags |= flagWindowed
	}
	w.u32(flags)
	w.i64(pp.opts.TemporalWindowNs)
	if pp.Windows != nil {
		// Window geometry rides in the header, not the trailing section:
		// a decoder must construct the module (from options) before any
		// section is read.
		w.i64(pp.opts.WindowNs)
		w.i64(pp.opts.WindowSlideNs)
	}

	pp.encodeProfiler(&w, reset)
	pp.encodeTopology(&w, reset)
	pp.encodeDensity(&w, reset)
	if pp.Waits != nil {
		pp.encodeWaits(&w, pendings, reset)
	}
	if pp.Temporal != nil {
		pp.encodeTemporal(&w, reset)
	}
	if pp.Callsites != nil {
		pp.encodeCallsites(&w, reset)
	}
	if pp.Sizes != nil {
		pp.encodeSizes(&w, reset)
	}
	if shed {
		pp.encodeShed(&w, reset)
	}
	if pp.Windows != nil {
		pp.encodeWindows(&w, pendings, reset)
	}
	return w.buf
}

func (pp *Partial) encodeWindows(w *pwriter, pendings, reset bool) {
	m := pp.Windows
	m.mu.Lock()
	defer m.mu.Unlock()
	// Only windows with content travel: a window drained by an earlier
	// delta flush stays in the map but must not change the bytes (content-
	// equal series encode identically whatever their flush history). Events
	// are only in the windows written since the last reset; pending queues,
	// which a delta flush leaves behind, can be in any.
	visit := m.written
	if pendings {
		visit = make([]int64, 0, len(m.wins))
		for i := range m.wins {
			visit = append(visit, i)
		}
	}
	slices.Sort(visit)
	if reset {
		// Idle for a whole epoch: the in-place reset keeps a written
		// matrix warm, but a window nobody writes to any more must not pin
		// 24*N^2 bytes for the rest of the run.
		for _, i := range m.flushed {
			if wp := m.wins[i]; wp != nil && !wp.listed {
				wp.Topology.release()
			}
		}
		m.flushed = m.flushed[:0]
	}
	countAt := w.reserve()
	n := 0
	for _, i := range visit {
		wp := m.wins[i]
		if !windowHasContent(wp, pendings) {
			if reset {
				wp.Topology.release()
			}
			continue
		}
		n++
		w.i64(i)
		// Length-prefixed nested encoding: reserve the u32, encode the
		// inner partial in place, backfill.
		lenAt := w.reserve()
		w.buf = wp.encode(w.buf, pendings, reset)
		w.backfill(lenAt, len(w.buf)-lenAt-4)
		if reset {
			m.flushed = append(m.flushed, i)
		}
	}
	w.backfill(countAt, n)
	if reset {
		for _, i := range m.written {
			m.wins[i].listed = false
		}
		m.written = m.written[:0]
		m.cur = nil // the next fold has to list its window again
	}
}

// windowHasContent reports whether an inner window partial would
// contribute anything to an encoding: folded events, or (on a
// pendings-carrying encode) unmatched wait queues left behind by an
// earlier delta flush.
func windowHasContent(wp *Partial, pendings bool) bool {
	wp.Profiler.mu.Lock()
	events := wp.Profiler.events
	wp.Profiler.mu.Unlock()
	if events > 0 {
		return true
	}
	if !pendings || wp.Waits == nil {
		return false
	}
	ws := wp.Waits
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for _, q := range ws.chans {
		if len(q.sends)+len(q.recvs) > 0 {
			return true
		}
	}
	return false
}

// AddAudit folds audit-pack entries (a recorder's shed ledger) into the
// partial, creating its completeness module on first use.
func (pp *Partial) AddAudit(entries []trace.AuditEntry) {
	if len(entries) == 0 {
		return
	}
	if pp.Shed == nil {
		pp.Shed = NewCompletenessModule()
	}
	pp.Shed.AddAudit(entries)
}

func (pp *Partial) encodeShed(w *pwriter, reset bool) {
	m := pp.Shed
	m.mu.Lock()
	defer m.mu.Unlock()
	kinds := nonZeroKeys(m.per)
	slices.Sort(kinds)
	w.u32(uint32(len(kinds)))
	for _, k := range kinds {
		st := m.per[k]
		w.u32(uint32(k))
		w.i64(st.Shed)
		w.i64(st.Kept)
		if reset {
			*st = ShedStat{}
		}
	}
}

func (pp *Partial) encodeProfiler(w *pwriter, reset bool) {
	m := pp.Profiler
	m.mu.Lock()
	defer m.mu.Unlock()
	w.i64(m.events)
	countAt := w.reserve()
	n := 0
	for k := range m.total {
		st := &m.total[k]
		if *st == (Stat{}) {
			continue
		}
		n++
		w.u32(uint32(k))
		w.stat(*st)
		if reset {
			*st = Stat{}
		}
	}
	w.backfill(countAt, n)
	if reset {
		m.events = 0
	}
}

func (pp *Partial) encodeTopology(w *pwriter, reset bool) {
	m := pp.Topology
	m.mu.Lock()
	defer m.mu.Unlock()
	countAt := w.reserve()
	n := 0
	m.mat.walk(reset, func(i int, st Stat) {
		n++
		w.u32(uint32(i))
		w.stat(st)
	})
	w.backfill(countAt, n)
}

// encodeKindRows writes a table of per-kind dense rows sparse: kinds
// ascending (the table's index order), within a kind only the non-zero
// cells, and no kind without one. A reset zeroes the rows and keeps them.
func encodeKindRows(w *pwriter, perKind *[kindSlots][]Stat, reset bool) {
	kindsAt := w.reserve()
	nk := 0
	for k, per := range perKind {
		if len(per) == 0 {
			continue
		}
		kindAt := len(w.buf)
		w.u32(uint32(k))
		countAt := w.reserve()
		n := 0
		for i := range per {
			if per[i] == (Stat{}) {
				continue
			}
			n++
			w.u32(uint32(i))
			w.stat(per[i])
		}
		if n == 0 {
			w.buf = w.buf[:kindAt]
		} else {
			w.backfill(countAt, n)
			nk++
		}
		if reset {
			clear(per)
		}
	}
	w.backfill(kindsAt, nk)
}

func (pp *Partial) encodeDensity(w *pwriter, reset bool) {
	m := pp.Density
	m.mu.Lock()
	defer m.mu.Unlock()
	encodeKindRows(w, &m.perKind, reset)
}

func (pp *Partial) encodeWaits(w *pwriter, pendings, reset bool) {
	m := pp.Waits
	m.mu.Lock()
	defer m.mu.Unlock()
	// Settle first: pairs realized here ride in the settled sums, and only
	// the truly unmatched remainder travels as pending queues. Lazy
	// (per-window) modules skip this and ship whole queues instead.
	if !m.lazy {
		m.settleLocked()
	}
	w.i64(m.pairs)
	countAt := w.reserve()
	n := 0
	for r, v := range m.lateHits {
		if v == 0 {
			continue
		}
		n++
		w.u32(uint32(r))
		w.i64(m.lateNs[r])
		w.i64(v)
	}
	w.backfill(countAt, n)
	if reset {
		m.pairs = 0
		clear(m.lateNs)
		clear(m.lateHits)
	}
	if !pendings {
		w.u32(0)
		w.u32(0)
		return
	}
	// Pairing leaves empty queues behind in the records; skipping them
	// keeps the encoding canonical (content-equal modules encode
	// identically whatever their pairing history). Both sections list
	// their channels in the same order, so one sort serves them.
	type liveChan struct {
		key chanKey
		q   *chanQueues
	}
	live := make([]liveChan, 0, len(m.chans))
	for k, q := range m.chans {
		if len(q.sends)+len(q.recvs) > 0 {
			live = append(live, liveChan{k, q})
		}
	}
	slices.SortFunc(live, func(a, b liveChan) int { return cmpChanKey(a.key, b.key) })
	countAt = w.reserve()
	n = 0
	for _, c := range live {
		if len(c.q.sends) == 0 {
			continue
		}
		n++
		w.chanKey(c.key)
		w.u32(uint32(len(c.q.sends)))
		for _, t := range c.q.sends {
			w.i64(t)
		}
	}
	w.backfill(countAt, n)
	countAt = w.reserve()
	n = 0
	for _, c := range live {
		if len(c.q.recvs) == 0 {
			continue
		}
		n++
		w.chanKey(c.key)
		w.u32(uint32(len(c.q.recvs)))
		for _, rv := range c.q.recvs {
			w.u32(uint32(rv.rank))
			w.i64(rv.tStart)
			w.i64(rv.tEnd)
		}
	}
	w.backfill(countAt, n)
	if reset {
		for _, c := range live {
			c.q.sends, c.q.recvs = c.q.sends[:0], c.q.recvs[:0]
		}
	}
}

func (pp *Partial) encodeTemporal(w *pwriter, reset bool) {
	m := pp.Temporal
	m.mu.Lock()
	defer m.mu.Unlock()
	w.u32(uint32(m.buckets))
	encodeKindRows(w, &m.perKind, reset)
	if reset {
		// A reset row keeps its capacity but not its length: the bucket
		// count restarts at zero and growStats re-extends rows as events
		// arrive.
		for k, per := range m.perKind {
			m.perKind[k] = per[:0]
		}
		m.buckets = 0
	}
}

func cmpCallsiteKey(a, b callsiteKey) int {
	return cmp.Or(cmp.Compare(a.ctx, b.ctx), cmp.Compare(a.kind, b.kind))
}

func (pp *Partial) encodeCallsites(w *pwriter, reset bool) {
	m := pp.Callsites
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := nonZeroKeys(m.per)
	slices.SortFunc(keys, cmpCallsiteKey)
	w.u32(uint32(len(keys)))
	for _, k := range keys {
		st := m.per[k]
		w.u32(k.ctx)
		w.u32(uint32(k.kind))
		w.stat(*st)
		if reset {
			*st = Stat{}
		}
	}
}

func (pp *Partial) encodeSizes(w *pwriter, reset bool) {
	m := pp.Sizes
	m.mu.Lock()
	defer m.mu.Unlock()
	countAt := w.reserve()
	n := 0
	for b := 0; b < SizeBuckets; b++ {
		if m.hits[b] == 0 {
			continue
		}
		n++
		w.u32(uint32(b))
		w.i64(m.hits[b])
		w.i64(m.bytes[b])
	}
	w.backfill(countAt, n)
	if reset {
		m.hits = [SizeBuckets]int64{}
		m.bytes = [SizeBuckets]int64{}
	}
}

// cmpChanKey is the canonical channel order of the pending-queue
// sections (fields compared signed, as stored).
func cmpChanKey(a, b chanKey) int {
	return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst),
		cmp.Compare(a.tag, b.tag), cmp.Compare(a.comm, b.comm))
}

// --- decoding: one additive walker ---
//
// There is one reader of the wire format. Every section walker folds
// what it reads into the receiver (cell +=, queue merge + drain) when
// apply is set and only checks it otherwise; DecodePartial is that
// walker applied to a fresh partial, MergeEncoded a checking pass
// followed by an applying one. Keys must arrive strictly ascending, as
// every encoder writes them: with additive semantics a repeated key
// would be a silent double count.

// DecodePartial decodes an encoded partial profile. Malformed input
// returns an error, never panics.
func DecodePartial(buf []byte) (*Partial, error) {
	r := preader{buf: buf}
	appID, opts, flags, err := readPartialHeader(&r)
	if err != nil {
		return nil, err
	}
	pp := NewPartial(appID, opts)
	// The receiver is private until it is returned, so the sections are
	// applied as they are checked: an error just drops it.
	if err := pp.mergeSections(&r, flags, true); err != nil {
		return nil, err
	}
	return pp, nil
}

// MergeEncoded folds an encoded partial of the same application and
// module selection into pp straight from its bytes — the result of
// Merge(DecodePartial(buf)) without materializing the decoded partial,
// so the cost is proportional to what buf holds, not to the dense
// module state. Validate-then-apply: the buffer is first walked with
// every hostile-input check DecodePartial makes and only then folded
// in, so an error leaves pp exactly as it was.
func (pp *Partial) MergeEncoded(buf []byte) error { return pp.mergeEncoded(buf, pp.AppID) }

// mergeEncoded is MergeEncoded of a partial whose header must name
// application want: the receiver's own id, or the id a dispatcher routed
// the bytes by to a state that folds under another.
func (pp *Partial) mergeEncoded(buf []byte, want uint32) error {
	r := preader{buf: buf}
	appID, opts, flags, err := readPartialHeader(&r)
	if err != nil {
		return err
	}
	if err := pp.mergeable(want, appID, opts); err != nil {
		return err
	}
	body := r.off
	if err := pp.mergeSections(&r, flags, false); err != nil {
		return err
	}
	r.off = body
	return pp.mergeSections(&r, flags, true)
}

// PartialAppID returns the application id an encoded partial's header
// names, checking the header only — what a hop needs to route the bytes to
// the accumulator or level that merges them.
func PartialAppID(buf []byte) (uint32, error) {
	appID, _, _, err := readPartialHeader(&preader{buf: buf})
	return appID, err
}

// readPartialHeader reads the magic, identity, module flags and window
// geometry, and returns the module selection they spell.
func readPartialHeader(r *preader) (appID uint32, opts PartialOptions, flags uint32, err error) {
	var magic [4]byte
	r.bytes(magic[:])
	if r.err == nil && magic != partialMagic {
		return 0, opts, 0, fmt.Errorf("analysis: bad partial magic %q", magic[:])
	}
	appID = r.u32()
	appSize := int(r.u32())
	flags = r.u32()
	window := r.i64()
	if r.err != nil {
		return 0, opts, 0, r.err
	}
	if appSize < 0 || appSize > maxDecodedAppSize {
		return 0, opts, 0, fmt.Errorf("analysis: implausible partial app size %d", appSize)
	}
	opts = PartialOptions{
		AppSize:   appSize,
		WaitState: flags&flagWait != 0,
		Callsites: flags&flagCallsites != 0,
		Sizes:     flags&flagSizes != 0,
	}
	if flags&flagTemporal != 0 {
		if window <= 0 {
			return 0, opts, 0, fmt.Errorf("analysis: partial temporal flag with window %d", window)
		}
		opts.TemporalWindowNs = window
	}
	if flags&flagWindowed != 0 {
		opts.WindowNs = r.i64()
		opts.WindowSlideNs = r.i64()
		if r.err != nil {
			return 0, opts, 0, r.err
		}
		// NewPartial would silently normalize these; on the wire an
		// out-of-range geometry is hostile input and fails loudly.
		if opts.WindowNs <= 0 {
			return 0, opts, 0, fmt.Errorf("analysis: partial windowed flag with width %d", opts.WindowNs)
		}
		if opts.WindowSlideNs <= 0 || opts.WindowSlideNs > opts.WindowNs {
			return 0, opts, 0, fmt.Errorf("analysis: partial window slide %d outside (0, %d]",
				opts.WindowSlideNs, opts.WindowNs)
		}
	}
	return appID, opts, flags, nil
}

// mergeSections walks the sections behind a header that spelled pp.opts
// to the end of r. With apply unset nothing of pp but its options is
// touched (its modules may be nil).
func (pp *Partial) mergeSections(r *preader, flags uint32, apply bool) error {
	o := pp.opts
	sections := [...]struct {
		present bool
		walk    func(*Partial, *preader, bool) error
	}{
		{true, (*Partial).mergeProfiler},
		{true, (*Partial).mergeTopology},
		{true, (*Partial).mergeDensity},
		{o.WaitState, (*Partial).mergeWaits},
		{o.TemporalWindowNs > 0, (*Partial).mergeTemporal},
		{o.Callsites, (*Partial).mergeCallsites},
		{o.Sizes, (*Partial).mergeSizes},
		{flags&flagShed != 0, (*Partial).mergeShed},
		{o.WindowNs > 0, (*Partial).mergeWindows},
	}
	for _, sec := range sections {
		if !sec.present {
			continue
		}
		if err := sec.walk(pp, r, apply); err != nil {
			return err
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("analysis: %d trailing bytes after partial", len(r.buf)-r.off)
	}
	return nil
}

func (pp *Partial) mergeProfiler(r *preader, apply bool) error {
	events := r.i64()
	n := int(r.u32())
	if err := r.fits(n, 4+24); err != nil {
		return err
	}
	m := pp.Profiler
	if apply {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.events += events
	}
	var prev uint32
	for i := 0; i < n; i++ {
		k := r.kind("profiler")
		st := r.stat()
		if !r.inOrder(i == 0 || k > prev, "profiler kind") {
			return r.err
		}
		prev = k
		if apply {
			m.total[k].merge(st)
		}
	}
	return r.err
}

func (pp *Partial) mergeTopology(r *preader, apply bool) error {
	n := int(r.u32())
	if err := r.fits(n, 4+24); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	size := pp.opts.AppSize
	var mat *Matrix
	if apply {
		m := pp.Topology
		m.mu.Lock()
		defer m.mu.Unlock()
		mat = m.mat
	}
	var prev uint32
	for i := 0; i < n; i++ {
		idx := r.u32()
		st := r.stat()
		if !r.inOrder(i == 0 || idx > prev, "topology cell") {
			return r.err
		}
		prev = idx
		if int(idx) >= size*size {
			return fmt.Errorf("analysis: partial topology cell %d outside %dx%d", idx, size, size)
		}
		// No encoder writes a cell without hits, and none would ever write or
		// zero what such a cell left behind in the matrix.
		if st.Hits <= 0 {
			return fmt.Errorf("analysis: partial topology cell %d with %d hits", idx, st.Hits)
		}
		if apply {
			mat.cell(int(idx)).merge(st)
		}
	}
	return nil
}

func (pp *Partial) mergeDensity(r *preader, apply bool) error {
	nk := int(r.u32())
	if err := r.fits(nk, 8); err != nil {
		return err
	}
	m := pp.Density
	if apply {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	var prevK uint32
	for i := 0; i < nk; i++ {
		k := r.kind("density")
		n := int(r.u32())
		r.inOrder(i == 0 || k > prevK, "density kind")
		prevK = k
		if err := r.fits(n, 4+24); err != nil {
			return err
		}
		var per []Stat
		if apply && n > 0 {
			per = m.row(trace.Kind(k))
		}
		var prev uint32
		for j := 0; j < n; j++ {
			rank := r.u32()
			st := r.stat()
			if !r.inOrder(j == 0 || rank > prev, "density rank") {
				return r.err
			}
			prev = rank
			if int(rank) >= pp.opts.AppSize {
				return fmt.Errorf("analysis: partial density rank %d outside app of %d", rank, pp.opts.AppSize)
			}
			if apply {
				per[rank].merge(st)
			}
		}
	}
	return r.err
}

func (pp *Partial) mergeWaits(r *preader, apply bool) error {
	pairs := r.i64()
	n := int(r.u32())
	if err := r.fits(n, 4+16); err != nil {
		return err
	}
	m := pp.Waits
	if apply {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.pairs += pairs
	}
	var prev uint32
	for i := 0; i < n; i++ {
		rank := r.u32()
		lateNs := r.i64()
		lateHits := r.i64()
		if !r.inOrder(i == 0 || rank > prev, "wait rank") {
			return r.err
		}
		prev = rank
		if int(rank) >= pp.opts.AppSize {
			return fmt.Errorf("analysis: partial wait rank %d outside app of %d", rank, pp.opts.AppSize)
		}
		if apply {
			m.lateNs[rank] += lateNs
			m.lateHits[rank] += lateHits
		}
	}
	// Pending queues, exactly as MergeFull folds them: sorted merge per
	// channel, then (unless lazy) a positional drain of every channel the
	// buffer named — after both sides are in, so the pairing sees the
	// channel's whole FIFO order.
	var named []*chanQueues
	for side := 0; side < 2; side++ {
		elem := 8 // send: start time
		if side == 1 {
			elem = 4 + 16 // recv: rank, start, end
		}
		nq := int(r.u32())
		if err := r.fits(nq, 16+4); err != nil {
			return err
		}
		var prevKey chanKey
		for i := 0; i < nq; i++ {
			key := r.chanKey()
			ql := int(r.u32())
			r.inOrder(i == 0 || cmpChanKey(prevKey, key) < 0, "wait channel")
			prevKey = key
			if err := r.fits(ql, elem); err != nil {
				return err
			}
			if !apply || ql == 0 {
				r.off += ql * elem
				continue
			}
			cq := m.queues(key)
			if side == 0 {
				q := make([]int64, ql)
				for j := range q {
					q[j] = r.i64()
				}
				cq.sends = mergeSorted(cq.sends, q, cmp.Less[int64])
			} else {
				q := make([]recvEvt, ql)
				for j := range q {
					q[j] = recvEvt{rank: int32(r.u32()), tStart: r.i64(), tEnd: r.i64()}
				}
				cq.recvs = mergeSorted(cq.recvs, q, lessRecv)
			}
			named = append(named, cq)
		}
	}
	for _, cq := range named {
		m.merged(cq)
	}
	return r.err
}

func (pp *Partial) mergeTemporal(r *preader, apply bool) error {
	buckets := int(r.u32())
	if buckets < 0 || buckets > maxDecodedTemporalBuckets {
		return fmt.Errorf("analysis: implausible partial temporal bucket count %d", buckets)
	}
	nk := int(r.u32())
	if err := r.fits(nk, 8); err != nil {
		return err
	}
	m := pp.Temporal
	if apply {
		m.mu.Lock()
		defer m.mu.Unlock()
		if buckets > m.buckets {
			m.buckets = buckets
		}
	}
	cells := 0
	var prevK uint32
	for i := 0; i < nk; i++ {
		k := r.kind("temporal")
		n := int(r.u32())
		r.inOrder(i == 0 || k > prevK, "temporal kind")
		prevK = k
		if err := r.fits(n, 4+24); err != nil {
			return err
		}
		// First pass: check the entries and find the highest bucket index,
		// so the dense row grows exactly once. Growing it inside the fill
		// loop would let a small payload with ascending indices force
		// repeated near-gigabyte reallocations.
		mark := r.off
		maxB := -1
		for j := 0; j < n; j++ {
			b := int(r.u32())
			r.stat()
			if !r.inOrder(b > maxB, "temporal bucket") {
				return r.err
			}
			if b >= buckets {
				return fmt.Errorf("analysis: partial temporal bucket %d outside %d", b, buckets)
			}
			maxB = b
		}
		cells += maxB + 1
		if cells > maxDecodedTemporalBuckets {
			return fmt.Errorf("analysis: partial temporal map claims %d cells (cap %d)", cells, maxDecodedTemporalBuckets)
		}
		if !apply || n == 0 {
			continue
		}
		per := growStats(m.perKind[k], maxB+1)
		r.off = mark
		for j := 0; j < n; j++ {
			b := r.u32()
			per[b].merge(r.stat())
		}
		m.perKind[k] = per
	}
	return r.err
}

func (pp *Partial) mergeCallsites(r *preader, apply bool) error {
	n := int(r.u32())
	if err := r.fits(n, 8+24); err != nil {
		return err
	}
	m := pp.Callsites
	if apply {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	var prev uint64
	for i := 0; i < n; i++ {
		ctx, kind := r.u32(), r.kind("call-site")
		st := r.stat()
		order := uint64(ctx)<<32 | uint64(kind)
		if !r.inOrder(i == 0 || order > prev, "call-site") {
			return r.err
		}
		prev = order
		if apply {
			entry(m.per, callsiteKey{ctx: ctx, kind: trace.Kind(kind)}).merge(st)
		}
	}
	return nil
}

func (pp *Partial) mergeSizes(r *preader, apply bool) error {
	n := int(r.u32())
	if err := r.fits(n, 4+16); err != nil {
		return err
	}
	m := pp.Sizes
	if apply {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	var prev uint32
	for i := 0; i < n; i++ {
		b := r.u32()
		hits := r.i64()
		bytes := r.i64()
		if !r.inOrder(i == 0 || b > prev, "size bucket") {
			return r.err
		}
		prev = b
		if b >= SizeBuckets {
			return fmt.Errorf("analysis: partial size bucket %d outside %d", b, SizeBuckets)
		}
		if apply {
			m.hits[b] += hits
			m.bytes[b] += bytes
		}
	}
	return nil
}

func (pp *Partial) mergeShed(r *preader, apply bool) error {
	n := int(r.u32())
	if err := r.fits(n, 4+16); err != nil {
		return err
	}
	if apply && pp.Shed == nil {
		pp.Shed = NewCompletenessModule()
	}
	m := pp.Shed
	if apply {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	var prev uint32
	for i := 0; i < n; i++ {
		k := r.kind("shed")
		st := ShedStat{Shed: r.i64(), Kept: r.i64()}
		if !r.inOrder(i == 0 || k > prev, "shed kind") {
			return r.err
		}
		prev = k
		if st.Shed < 0 || st.Kept < 0 {
			return fmt.Errorf("analysis: negative shed ledger counts for %v", trace.Kind(k))
		}
		if apply {
			dst := entry(m.per, trace.Kind(k))
			dst.Shed += st.Shed
			dst.Kept += st.Kept
		}
	}
	return r.err
}

func (pp *Partial) mergeWindows(r *preader, apply bool) error {
	n := int(r.u32())
	if r.err != nil {
		return r.err
	}
	if n < 0 || n > maxDecodedWindows {
		return fmt.Errorf("analysis: partial window count %d outside [0, %d]", n, maxDecodedWindows)
	}
	if err := r.fits(n, 8+4); err != nil {
		return err
	}
	inner := innerWindowOptions(pp.opts)
	check := Partial{opts: inner} // checking needs the options only
	m := pp.Windows
	if apply {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	prev := int64(-1)
	for i := 0; i < n; i++ {
		idx := r.i64()
		bl := int(r.u32())
		if r.err != nil {
			return r.err
		}
		if idx < 0 || idx <= prev {
			return fmt.Errorf("analysis: partial window index %d out of order after %d", idx, prev)
		}
		prev = idx
		if bl < 0 || bl > len(r.buf)-r.off {
			r.fail()
			return r.err
		}
		sub := preader{buf: r.buf[r.off : r.off+bl]}
		appID, opts, flags, err := readPartialHeader(&sub)
		if err != nil {
			return fmt.Errorf("analysis: window %d: %w", idx, err)
		}
		// A nested windowed partial (or any other module drift) shows up
		// as an options mismatch against the derived inner selection.
		if appID != 0 || opts != inner {
			return fmt.Errorf("analysis: window %d module selection %+v does not match series %+v",
				idx, opts, inner)
		}
		wp := &check
		if apply {
			wp = m.window(idx)
		}
		if err := wp.mergeSections(&sub, flags, apply); err != nil {
			return fmt.Errorf("analysis: window %d: %w", idx, err)
		}
		r.off += bl
	}
	return r.err
}

// --- primitive encoding helpers ---

type pwriter struct{ buf []byte }

func (w *pwriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *pwriter) i64(v int64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v)) }
func (w *pwriter) stat(s Stat)  { w.i64(s.Hits); w.i64(s.Bytes); w.i64(s.TimeNs) }

// reserve appends a u32 placeholder for a count or length known only
// after its items are written, and returns where backfill must put it.
func (w *pwriter) reserve() int {
	w.u32(0)
	return len(w.buf) - 4
}

func (w *pwriter) backfill(at, v int) { binary.LittleEndian.PutUint32(w.buf[at:], uint32(v)) }

func (w *pwriter) chanKey(k chanKey) {
	w.u32(uint32(k.src))
	w.u32(uint32(k.dst))
	w.u32(uint32(k.tag))
	w.u32(k.comm)
}

type preader struct {
	buf []byte
	off int
	err error
}

func (r *preader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("analysis: truncated partial at byte %d of %d", r.off, len(r.buf))
	}
}

// fits guards count-prefixed sections: n items of at least min bytes each
// must fit in the remaining buffer, so a corrupt count can't drive a huge
// allocation or a long spin.
func (r *preader) fits(n, min int) error {
	if r.err != nil {
		return r.err
	}
	if n < 0 || n*min > len(r.buf)-r.off {
		r.fail()
	}
	return r.err
}

// inOrder fails the read unless sorted — the caller's "this key sorts
// strictly after the previous one" — and reports whether the read is
// still good.
func (r *preader) inOrder(sorted bool, what string) bool {
	if !sorted && r.err == nil {
		r.err = fmt.Errorf("analysis: partial %s keys out of order or repeated at byte %d", what, r.off)
	}
	return r.err == nil
}

func (r *preader) bytes(dst []byte) {
	if r.err != nil {
		return
	}
	if r.off+len(dst) > len(r.buf) {
		r.fail()
		return
	}
	copy(dst, r.buf[r.off:])
	r.off += len(dst)
}

func (r *preader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *preader) i64() int64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return int64(v)
}

// kind reads a kind key. Every other surface carries a kind as a uint8;
// a wider value here would alias into the kind tables (257 onto 1) and
// count twice under a key that passed the ascending-order check.
func (r *preader) kind(section string) uint32 {
	k := r.u32()
	if k > math.MaxUint8 && r.err == nil {
		r.err = fmt.Errorf("analysis: partial %s kind %d outside [0, %d]", section, k, math.MaxUint8)
	}
	return k
}

func (r *preader) stat() Stat {
	return Stat{Hits: r.i64(), Bytes: r.i64(), TimeNs: r.i64()}
}

func (r *preader) chanKey() chanKey {
	return chanKey{src: int32(r.u32()), dst: int32(r.u32()), tag: int32(r.u32()), comm: r.u32()}
}
