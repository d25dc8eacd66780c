package analysis

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

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

	// Core modules, present on every partial but a window's (the report's
	// mandatory chapters; see WindowedModule).
	Profiler *ProfilerModule
	Topology *TopologyModule
	Density  *DensityModule

	// Optional modules, present per opts.
	Waits     *WaitStateModule
	Temporal  *TemporalModule
	Callsites *CallsiteModule
	Sizes     *SizesModule

	// Windows is the time-resolved series: one inner Partial per
	// virtual-time window (see WindowedModule). Present when
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
		Profiler: &ProfilerModule{},
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
		pp.Windows = NewWindowedModule(opts.WindowNs, opts.WindowSlideNs, innerWindowOptions(opts), pp.Waits)
	}
	return pp
}

// Options returns the partial's module selection.
func (pp *Partial) Options() PartialOptions { return pp.opts }

// isWindow reports whether pp is a window's inner partial: the one kind
// of partial without a topology module.
func (pp *Partial) isWindow() bool { return pp.Topology == nil }

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
// not leak into the bytes. Eight sections are cell lists, written by
// statRow, pairRow and sortedCells and walked by preader.cells alone.

var partialMagic = [4]byte{'V', 'P', 'P', '1'}

// maxDecodedAppSize caps the app size a decoded partial may claim. The
// bound matters: a topology section materializes the dense 24*N^2-byte
// matrix, so an unchecked wire header is a one-frame memory bomb
// (N = 1<<24 maps ~6 PB). 1<<12 covers the paper's largest application
// partition (2560 procs) with a ~400 MB worst case.
const maxDecodedAppSize = 1 << 12

const (
	flagWait uint32 = 1 << iota
	flagTemporal
	flagCallsites
	flagSizes
	flagPendings
	flagShed
	flagWindowed
)

// bit is flag if on, else 0.
func bit(on bool, flag uint32) uint32 {
	if on {
		return flag
	}
	return 0
}

// section is one section behind the header: the header flag that makes it
// present (0: always), whether a window's inner partial leaves it out, and
// its writer, which runs under the section's lock (sectionMu), as does its
// walker (walkSection) when it applies. A pointer handed to a func value
// escapes: so a writer takes the pwriter by value and returns its bytes,
// and the lock and the walker are switches, or every encode would
// allocate its writer and every decode and merge its readers.
type section struct {
	flag  uint32
	whole bool
	write func(*Partial, pwriter) []byte
}

// partialSections lists the sections in wire order, the one place encode
// and mergeSections both learn it from; sectionMu and walkSection take
// their index in it.
func partialSections() [10]section {
	return [...]section{
		{0, false, (*Partial).encodeProfiler},
		{0, true, (*Partial).encodeTopology},
		{0, true, (*Partial).encodeDensity},
		{flagWait, false, (*Partial).encodeWaitSums},
		{flagWait, true, (*Partial).encodeWaitQueues},
		{flagTemporal, false, (*Partial).encodeTemporal},
		{flagCallsites, false, (*Partial).encodeCallsites},
		{flagSizes, false, (*Partial).encodeSizes},
		{flagShed, false, (*Partial).encodeShed},
		{flagWindowed, false, (*Partial).encodeWindows},
	}
}

// sectionMu returns the lock of section i's module, creating the shed
// ledger for a walker about to fold in its first entries.
func (pp *Partial) sectionMu(i int) *sync.Mutex {
	switch i {
	case 0:
		return &pp.Profiler.mu
	case 1:
		return &pp.Topology.mu
	case 2:
		return &pp.Density.mu
	case 3, 4:
		return &pp.Waits.mu
	case 5:
		return &pp.Temporal.mu
	case 6:
		return &pp.Callsites.mu
	case 7:
		return &pp.Sizes.mu
	case 8:
		if pp.Shed == nil {
			pp.Shed = NewCompletenessModule()
		}
		return &pp.Shed.mu
	}
	return &pp.Windows.mu
}

// walkSection runs section i's walker.
func (pp *Partial) walkSection(i int, r *preader, apply bool) error {
	switch i {
	case 0:
		return pp.mergeProfiler(r, apply)
	case 1:
		return pp.mergeTopology(r, apply)
	case 2:
		return pp.mergeDensity(r, apply)
	case 3:
		return pp.mergeWaitSums(r, apply)
	case 4:
		return pp.mergeWaitQueues(r, apply)
	case 5:
		return pp.mergeTemporal(r, apply)
	case 6:
		return pp.mergeCallsites(r, apply)
	case 7:
		return pp.mergeSizes(r, apply)
	case 8:
		return pp.mergeShed(r, apply)
	}
	return pp.mergeWindows(r, apply)
}

// in reports whether pp, behind a header with these flags, carries s.
func (s section) in(pp *Partial, flags uint32) bool {
	return (s.flag == 0 || flags&s.flag != 0) && !(s.whole && pp.isWindow())
}

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

// FlushPooled is Flush into pack-pool storage (trace.GetBuffer) sized from
// the caller's previous flush of the partial, *last (0 before the first;
// a few KB then), with a quarter's headroom for a delta that grew: steady
// flushes fit, and kept bytes are not pinned in a buffer much larger than
// they are. It sets *last; the bytes are the caller's to put back.
func (pp *Partial) FlushPooled(last *int, final bool) []byte {
	buf := pp.Flush(trace.GetBuffer(max(*last+*last/4, 4<<10))[:0], final)
	*last = len(buf)
	return buf
}

func (pp *Partial) encode(buf []byte, pendings, reset bool) []byte {
	w := pwriter{buf: buf, pendings: pendings, reset: reset}
	w.buf = append(w.buf, partialMagic[:]...)
	o := pp.opts
	w.u32(pp.AppID)
	w.u32(uint32(o.AppSize))
	flags := bit(o.WaitState, flagWait) | bit(o.TemporalWindowNs > 0, flagTemporal) | bit(o.Callsites, flagCallsites) |
		bit(o.Sizes, flagSizes) | bit(pendings, flagPendings) | bit(pp.Shed != nil && !pp.Shed.Empty(), flagShed) |
		bit(pp.Windows != nil, flagWindowed)
	w.u32(flags)
	w.i64(o.TemporalWindowNs)
	if pp.Windows != nil {
		// Window geometry rides in the header, not the trailing section:
		// a decoder must construct the module (from options) before any
		// section is read.
		w.i64(o.WindowNs)
		w.i64(o.WindowSlideNs)
	}
	for i, s := range partialSections() {
		if s.in(pp, flags) {
			mu := pp.sectionMu(i)
			mu.Lock()
			w.buf = s.write(pp, w)
			mu.Unlock()
		}
	}
	return w.buf
}

// encodeWindows writes the series after the whole-run sections, whose
// settle has credited it. Only windows with content travel, and all of
// them are in the written list: a window drained by an earlier delta flush
// stays in the map but must not change the bytes (content-equal series
// encode identically whatever their flush history).
func (pp *Partial) encodeWindows(w pwriter) []byte {
	m := pp.Windows
	slices.Sort(m.written)
	countAt := w.reserve()
	n := 0
	for _, i := range m.written {
		// The series' lock covers its windows' modules.
		wp := m.wins[i]
		if wp.Profiler.events == 0 && (wp.Waits == nil || wp.Waits.pairs == 0) {
			continue
		}
		n++
		w.i64(i)
		// Length-prefixed nested encoding: reserve the u32, encode the
		// inner partial in place, backfill.
		lenAt := w.reserve()
		w.buf = wp.encode(w.buf, false, w.reset)
		w.backfill(lenAt, len(w.buf)-lenAt-4)
	}
	w.backfill(countAt, n)
	if w.reset {
		for _, i := range m.written {
			m.wins[i].listed = false
		}
		m.written = m.written[:0]
		m.cur = nil // the next write has to list its window again
	}
	return w.buf
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

func (pp *Partial) encodeShed(w pwriter) []byte {
	sortedCells(&w, pp.Shed.per, &pp.Shed.keys, func(k trace.Kind, st ShedStat) {
		w.u32(uint32(k))
		w.i64(st.Shed)
		w.i64(st.Kept)
	})
	return w.buf
}

func (pp *Partial) encodeProfiler(w pwriter) []byte {
	m := pp.Profiler
	w.i64(m.events)
	w.statRow(m.total[:])
	if w.reset {
		m.events = 0
	}
	return w.buf
}

func (pp *Partial) encodeTopology(w pwriter) []byte {
	countAt, n := w.reserve(), 0
	pp.Topology.mat.walk(w.reset, func(i int, st Stat) {
		n++
		w.u32(uint32(i))
		w.stat(st)
	})
	w.backfill(countAt, n)
	return w.buf
}

func (pp *Partial) encodeDensity(w pwriter) []byte {
	w.kindRows(&pp.Density.perKind)
	return w.buf
}

// encodeWaitSums settles first: pairs realized here ride in the settled
// sums (and in the windows they credit), and only the truly unmatched
// remainder travels in the queue section behind it.
func (pp *Partial) encodeWaitSums(w pwriter) []byte {
	m := pp.Waits
	m.settleLocked()
	w.i64(m.pairs)
	w.pairRow([2][]int64{m.lateNs, m.lateHits}, 1)
	if w.reset {
		m.pairs = 0
	}
	return w.buf
}

func (pp *Partial) encodeWaitQueues(w pwriter) []byte {
	// Pairing leaves empty queues behind in the records; skipping them
	// keeps the encoding canonical (content-equal modules encode
	// identically whatever their pairing history). Both sections list
	// their channels in the same order, so one sort serves them. A delta
	// flush leaves the queues behind: both sections are empty.
	var live []*chanQueues
	if recs := pp.Waits.chans.recs; w.pendings {
		live = make([]*chanQueues, 0, len(recs))
		for _, q := range recs {
			if len(q.sends)+len(q.recvs) > 0 {
				live = append(live, q)
			}
		}
	}
	slices.SortFunc(live, func(a, b *chanQueues) int { return cmpChanKey(a.key, b.key) })
	countAt := w.reserve()
	n := 0
	for _, q := range live {
		if len(q.sends) == 0 {
			continue
		}
		n++
		w.chanKey(q.key)
		w.u32(uint32(len(q.sends)))
		for _, t := range q.sends {
			w.i64(t)
		}
	}
	w.backfill(countAt, n)
	countAt = w.reserve()
	n = 0
	for _, q := range live {
		if len(q.recvs) == 0 {
			continue
		}
		n++
		w.chanKey(q.key)
		w.u32(uint32(len(q.recvs)))
		for _, rv := range q.recvs {
			w.u32(uint32(rv.rank))
			w.i64(rv.tStart)
			w.i64(rv.tEnd)
		}
	}
	w.backfill(countAt, n)
	if w.reset {
		for _, q := range live {
			q.sends, q.recvs = q.sends[:0], q.recvs[:0]
		}
	}
	return w.buf
}

func (pp *Partial) encodeTemporal(w pwriter) []byte {
	m := pp.Temporal
	// A coarsened module says by how much in the count's top byte, so one
	// that never coarsened encodes as it always has.
	w.u32(uint32(m.buckets) | uint32(m.shift)<<24)
	w.kindRows(&m.perKind)
	if w.reset {
		// A reset row keeps its capacity but not its length: the bucket
		// count restarts at zero and growStats re-extends rows as events
		// arrive.
		for k, per := range m.perKind {
			m.perKind[k] = per[:0]
		}
		m.buckets = 0
	}
	return w.buf
}

func (pp *Partial) encodeCallsites(w pwriter) []byte {
	sortedCells(&w, pp.Callsites.per, &pp.Callsites.keys, func(k callsiteKey, st Stat) {
		w.u32(k.ctx())
		w.u32(uint32(k.kind()))
		w.stat(st)
	})
	return w.buf
}

func (pp *Partial) encodeSizes(w pwriter) []byte {
	m := pp.Sizes
	w.pairRow([2][]int64{m.hits[:], m.bytes[:]}, 0)
	return w.buf
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
// would be a silent double count. And a cell its writer never writes is
// refused: folded in, it would be dropped by the next encode.

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
// module state. Validate-then-apply: CheckEncoded, then MergeChecked, so
// an error leaves pp exactly as it was.
func (pp *Partial) MergeEncoded(buf []byte) error { return pp.mergeEncoded(buf, pp.AppID) }

// mergeEncoded is MergeEncoded of a partial whose header must name
// application want: the receiver's own id, or the id a dispatcher routed
// the bytes by to a state that folds under another.
func (pp *Partial) mergeEncoded(buf []byte, want uint32) error {
	if err := pp.walkEncoded(buf, want, false); err != nil {
		return err
	}
	return pp.walkEncoded(buf, want, true)
}

// CheckEncoded walks buf with every check MergeEncoded makes and folds
// nothing: nil means MergeEncoded would accept it. A caller that folds
// several buffers all or none checks each before merging any.
func (pp *Partial) CheckEncoded(buf []byte) error { return pp.walkEncoded(buf, pp.AppID, false) }

// MergeChecked is MergeEncoded's second walk alone, for a buf that
// CheckEncoded accepted: it folds without walking the bytes twice. It
// still refuses malformed input, but may have folded part of it by then.
func (pp *Partial) MergeChecked(buf []byte) error { return pp.walkEncoded(buf, pp.AppID, true) }

// walkEncoded reads buf's header, requires it mergeable into pp under
// application want, and walks its sections, folding them when apply is
// set.
func (pp *Partial) walkEncoded(buf []byte, want uint32, apply bool) error {
	r := preader{buf: buf}
	appID, opts, flags, err := readPartialHeader(&r)
	if err != nil {
		return err
	}
	if err := pp.mergeable(want, appID, opts); err != nil {
		return err
	}
	return pp.mergeSections(&r, flags, apply)
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
	if magic := r.u32(); r.err == nil && magic != binary.LittleEndian.Uint32(partialMagic[:]) {
		return 0, opts, 0, fmt.Errorf("analysis: bad partial magic %q", binary.LittleEndian.AppendUint32(nil, magic))
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
		if trace.WindowOverlap(opts.WindowNs, opts.WindowSlideNs) > trace.MaxWindowOverlap {
			return 0, opts, 0, fmt.Errorf("analysis: partial window %d / slide %d overlaps more than %d windows",
				opts.WindowNs, opts.WindowSlideNs, trace.MaxWindowOverlap)
		}
	}
	return appID, opts, flags, nil
}

// mergeSections walks the sections behind a header with these flags, which
// spelled pp.opts, to the end of r. With apply unset nothing of pp but its
// options is touched (its modules may be nil).
func (pp *Partial) mergeSections(r *preader, flags uint32, apply bool) error {
	for i, s := range partialSections() {
		if !s.in(pp, flags) {
			continue
		}
		if apply {
			pp.sectionMu(i).Lock()
		}
		err := pp.walkSection(i, r, apply)
		if apply {
			pp.sectionMu(i).Unlock()
		}
		if err != nil {
			return err
		}
	}
	// Every walker returns the reader's error, so r.err is nil here.
	if r.off != len(r.buf) {
		return fmt.Errorf("analysis: %d trailing bytes after partial", len(r.buf)-r.off)
	}
	return nil
}

func (pp *Partial) mergeProfiler(r *preader, apply bool) error {
	events := r.i64()
	m := pp.Profiler
	if apply {
		m.events += events
	}
	for c := r.cells("profiler kind", kindSlots, false, 4+24); c.next(r); {
		if st := r.stat(); st == (Stat{}) {
			c.refuse(r, zeroStat)
		} else if apply {
			m.total[c.key].merge(st)
		}
	}
	return r.err
}

func (pp *Partial) mergeTopology(r *preader, apply bool) error {
	size := pp.opts.AppSize
	for c := r.cells("topology cell", size*size, false, 4+24); c.next(r); {
		// No encoder writes a cell without hits, and none would ever write or
		// zero what such a cell left behind in the matrix.
		if st := r.stat(); st.Hits <= 0 {
			c.refuse(r, "without hits")
		} else if apply {
			pp.Topology.mat.cell(int(c.key)).merge(st)
		}
	}
	return r.err
}

func (pp *Partial) mergeDensity(r *preader, apply bool) error {
	for k := r.cells("density kind", kindSlots, false, 4+4); k.next(r); {
		var per []Stat
		if apply {
			per = pp.Density.row(trace.Kind(k.key))
		}
		for c := k.row(r, "density rank", pp.opts.AppSize); c.next(r); {
			if st := r.stat(); st == (Stat{}) {
				c.refuse(r, zeroStat)
			} else if apply {
				per[c.key].merge(st)
			}
		}
	}
	return r.err
}

func (pp *Partial) mergeWaitSums(r *preader, apply bool) error {
	pairs := r.i64()
	m := pp.Waits
	if apply {
		m.pairs += pairs
	}
	for c := r.cells("wait rank", pp.opts.AppSize, false, 4+16); c.next(r); {
		if lateNs, lateHits := r.i64(), r.i64(); lateHits == 0 {
			c.refuse(r, "without hits")
		} else if apply {
			m.lateNs[c.key] += lateNs
			m.lateHits[c.key] += lateHits
		}
	}
	return r.err
}

// mergeWaitQueues folds the pending queues exactly as MergeFull does:
// sorted merge per channel, then a positional drain of every channel the
// buffer named — after both sides are in, so the pairing sees the
// channel's whole FIFO order.
func (pp *Partial) mergeWaitQueues(r *preader, apply bool) error {
	m := pp.Waits
	var named []*chanQueues
	for side := 0; side < 2; side++ {
		elem := [2]int{8, 4 + 16}[side] // send: start time; recv: rank, start, end
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
	if apply {
		m.drainAll(named)
	}
	return r.err
}

func (pp *Partial) mergeTemporal(r *preader, apply bool) error {
	// A writer's rows hold at most maxTemporalBuckets buckets, and a row's
	// cells index below the count: dense rows stay within 256 kinds × B.
	v := r.u32()
	buckets, shift := int(v&(1<<24-1)), uint(v>>24)
	if buckets > maxTemporalBuckets {
		return fmt.Errorf("analysis: implausible partial temporal bucket count %d", buckets)
	}
	if pp.opts.TemporalWindowNs > math.MaxInt64>>shift {
		return fmt.Errorf("analysis: partial temporal width %d doubled %d times overflows", pp.opts.TemporalWindowNs, shift)
	}
	// The finer side is coarsened: m before the walk, the cells as they land.
	m := pp.Temporal
	var d uint
	if apply {
		if shift > m.shift {
			m.coarsen(shift - m.shift)
		}
		d = m.shift - shift
		m.buckets = max(m.buckets, ceilShift(buckets, d))
	}
	for k := r.cells("temporal kind", kindSlots, false, 4+4); k.next(r); {
		// First pass: check the row and find its highest bucket, so the
		// dense row grows exactly once.
		mark, top := r.off, 0
		for c := k.row(r, "temporal bucket", buckets); c.next(r); {
			if r.stat() == (Stat{}) {
				c.refuse(r, zeroStat)
			}
			top = int(c.key)
		}
		if r.err != nil || !apply {
			continue // an error ends the walk
		}
		per := growStats(m.perKind[k.key], top>>d+1)
		m.perKind[k.key] = per
		r.off = mark
		for c := k.row(r, "temporal bucket", buckets); c.next(r); {
			per[c.key>>d].merge(r.stat())
		}
	}
	return r.err
}

func (pp *Partial) mergeCallsites(r *preader, apply bool) error {
	// A call site's key is wide: its ctx, then its kind.
	for c := r.cells("call-site kind", kindSlots, true, 8+24); c.next(r); {
		if st := r.stat(); st == (Stat{}) {
			c.refuse(r, zeroStat)
		} else if apply {
			entry(pp.Callsites.per, makeCallsiteKey(uint32(c.key>>32), trace.Kind(c.key))).merge(st)
		}
	}
	return r.err
}

func (pp *Partial) mergeSizes(r *preader, apply bool) error {
	m := pp.Sizes
	for c := r.cells("size bucket", SizeBuckets, false, 4+16); c.next(r); {
		if hits, bytes := r.i64(), r.i64(); hits == 0 {
			c.refuse(r, "without hits")
		} else if apply {
			m.hits[c.key] += hits
			m.bytes[c.key] += bytes
		}
	}
	return r.err
}

// mergeShed also refuses a section without a shed event: the header flags
// one only then, so the next encode would drop the flag and the section.
func (pp *Partial) mergeShed(r *preader, apply bool) error {
	shed := false
	for c := r.cells("shed kind", kindSlots, false, 4+16); c.next(r); {
		st := ShedStat{Shed: r.i64(), Kept: r.i64()}
		if st.Shed < 0 || st.Kept < 0 {
			return fmt.Errorf("analysis: negative shed ledger counts for %v", trace.Kind(c.key))
		}
		shed = shed || st.Shed > 0
		if st == (ShedStat{}) {
			c.refuse(r, "with a zero ledger")
		} else if apply {
			dst := entry(pp.Shed.per, trace.Kind(c.key))
			dst.Shed += st.Shed
			dst.Kept += st.Kept
		}
	}
	if r.err == nil && !shed {
		return fmt.Errorf("analysis: partial shed flag without a shed event")
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
	check := Partial{opts: inner} // a window (no topology); checking needs the options only
	// Each window's reader is declared out here: declared in the loop, its
	// address would reach this walker's own reader through the recursion
	// and outlive the iteration, and every window would allocate one.
	var sub preader
	m := pp.Windows
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
		sub = preader{buf: r.buf[r.off : r.off+bl]}
		appID, opts, flags, err := readPartialHeader(&sub)
		if err != nil {
			return fmt.Errorf("analysis: window %d: %w", idx, err)
		}
		// A nested windowed partial (or any other module drift) shows up
		// as an options mismatch against the derived inner selection; a
		// window carries no pending queues and no shed ledger either.
		if appID != 0 || opts != inner || flags&^flagWait != 0 {
			return fmt.Errorf("analysis: window %d module selection %+v (flags %#x) does not match series %+v",
				idx, opts, flags, inner)
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

// pwriter appends an encoding to buf; pendings and reset are the flush's
// (see encode).
type pwriter struct {
	buf             []byte
	pendings, reset bool
}

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

// statRow writes a dense Stat row as a cell list of its non-zero cells,
// keyed by index, and returns how many it wrote. A reset zeroes the row
// and keeps it.
func (w *pwriter) statRow(row []Stat) int {
	countAt, n := w.reserve(), 0
	for i, st := range row {
		if st == (Stat{}) {
			continue
		}
		n++
		w.u32(uint32(i))
		w.stat(st)
	}
	w.backfill(countAt, n)
	if w.reset {
		clear(row)
	}
	return n
}

// kindRows writes a table of per-kind dense rows as a cell list of
// statRows keyed by kind, leaving out a kind whose row has no non-zero
// cell.
func (w *pwriter) kindRows(perKind *[kindSlots][]Stat) {
	countAt, n := w.reserve(), 0
	for k, row := range perKind {
		if len(row) == 0 {
			continue
		}
		kindAt := len(w.buf)
		w.u32(uint32(k))
		if w.statRow(row) == 0 {
			w.buf = w.buf[:kindAt]
			continue
		}
		n++
	}
	w.backfill(countAt, n)
}

// pairRow writes two dense i64 columns as a cell list keyed by index: both
// values of every cell whose hits column (0 or 1) is non-zero. A reset
// zeroes both columns.
func (w *pwriter) pairRow(cols [2][]int64, hits int) {
	countAt, n := w.reserve(), 0
	for i, h := range cols[hits] {
		if h == 0 {
			continue
		}
		n++
		w.u32(uint32(i))
		w.i64(cols[0][i])
		w.i64(cols[1][i])
	}
	w.backfill(countAt, n)
	if w.reset {
		clear(cols[0])
		clear(cols[1])
	}
}

// sortedCells writes a map's non-zero entries as a cell list in key order,
// put writing each key and value. The keys are sorted in *scratch, which
// the map's module keeps under the lock the encode holds. A reset zeroes
// the entries and keeps them.
func sortedCells[K cmp.Ordered, V comparable](w *pwriter, m map[K]*V, scratch *[]K, put func(K, V)) {
	keys := appendNonZeroKeys((*scratch)[:0], m)
	*scratch = keys
	slices.Sort(keys)
	w.u32(uint32(len(keys)))
	var zero V
	for _, k := range keys {
		v := m[k]
		put(k, *v)
		if w.reset {
			*v = zero
		}
	}
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

// cellList walks a cell list: a count, then cells of at least size bytes
// strictly ascending by key, each key below bound — a wide key (a call
// site's) is a u32 prefix and then the u32 below bound. next checks a key;
// the section reads the value behind it, refuses a cell no encoder writes,
// and folds it in when applying. Any failure is the reader's error. The
// reader is passed, not held: a cursor's name reaches the errors, and with
// it everything the cursor holds would escape, the reader too.
type cellList struct {
	what     string
	bound, n int // n counts the cells left
	wide     bool
	started  bool
	key      uint64 // the current cell's
}

func (r *preader) cells(what string, bound int, wide bool, size int) cellList {
	n := int(r.u32())
	if r.fits(n, size) != nil {
		n = 0
	}
	return cellList{what: what, bound: bound, n: n, wide: wide}
}

// next steps to the next cell of r, reading its key in place (it runs once
// a cell), and reports whether there is one to read.
func (c *cellList) next(r *preader) bool {
	if c.n == 0 || r.err != nil {
		return false
	}
	c.n--
	at := r.off
	if c.wide {
		at += 4
	}
	if at+4 > len(r.buf) {
		r.fail()
		return false
	}
	low := binary.LittleEndian.Uint32(r.buf[at:])
	key := uint64(low)
	if c.wide {
		key |= uint64(binary.LittleEndian.Uint32(r.buf[r.off:])) << 32
	}
	r.off = at + 4
	switch {
	case c.started && key <= c.key:
		return r.inOrder(false, c.what) // fails the read
	case int(low) >= c.bound:
		r.err = fmt.Errorf("analysis: partial %s %d outside [0, %d)", c.what, low, c.bound)
		return false
	}
	c.key, c.started = key, true
	return true
}

// refuse ends the walk at the current cell, one its section's writer never
// writes: folded in, it would vanish at the next encode.
func (c *cellList) refuse(r *preader, why string) {
	if r.err == nil {
		r.err = fmt.Errorf("analysis: partial %s %d %s, which no encoder writes", c.what, c.key, why)
	}
}

// zeroStat is why a Stat section refuses a cell: no writer writes a zero
// Stat. Not hits: temporal spreads time into buckets that got none.
const zeroStat = "with a zero Stat"

// row starts the row behind the current kind of a kindRows table: Stat
// cells keyed below bound, at least one, as kindRows writes no empty row.
func (c *cellList) row(r *preader, what string, bound int) cellList {
	row := r.cells(what, bound, false, 4+24)
	if row.n == 0 {
		c.refuse(r, "with an empty row")
	}
	return row
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

func (r *preader) stat() Stat {
	return Stat{Hits: r.i64(), Bytes: r.i64(), TimeNs: r.i64()}
}

func (r *preader) chanKey() chanKey {
	return chanKey{src: int32(r.u32()), dst: int32(r.u32()), tag: int32(r.u32()), comm: r.u32()}
}
