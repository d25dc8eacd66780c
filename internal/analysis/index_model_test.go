package analysis

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// This file holds the touched indexes — the matrix's bitmap, the wait-state
// module's unsettled list, the window series' written list — to a model
// that has none: plain maps filled event by event, encoded by sorting their
// keys. The model shares no fold, merge or encode code with the engine; it
// reuses only the primitive writer and the channel key type. Its call-site
// key is a struct of its own, so it does not share the engine's packing.

// modelPartial is the naive partial: every module a map.
type modelPartial struct {
	appID  uint32
	opts   PartialOptions
	window bool // a window: events, kind table and the wait sums credited to it

	events int64
	prof   map[trace.Kind]Stat
	topo   map[int]Stat
	dens   map[trace.Kind]map[int]Stat
	calls  map[modelCallsite]Stat
	sizes  map[int][2]int64

	pairs    int64
	late     map[int][2]int64 // rank -> late ns, late hits
	sends    map[chanKey][]int64
	recvs    map[chanKey][]recvEvt
	buckets  int
	temporal map[trace.Kind]map[int]Stat
	wins     map[int64]*modelPartial
}

type modelCallsite struct {
	ctx  uint32
	kind trace.Kind
}

func cmpModelCallsite(a, b modelCallsite) int {
	return cmp.Or(cmp.Compare(a.ctx, b.ctx), cmp.Compare(a.kind, b.kind))
}

func newModelPartial(appID uint32, opts PartialOptions, window bool) *modelPartial {
	return &modelPartial{
		appID: appID, opts: opts, window: window,
		prof: map[trace.Kind]Stat{}, topo: map[int]Stat{}, dens: map[trace.Kind]map[int]Stat{},
		calls: map[modelCallsite]Stat{}, sizes: map[int][2]int64{}, late: map[int][2]int64{},
		sends: map[chanKey][]int64{}, recvs: map[chanKey][]recvEvt{},
		temporal: map[trace.Kind]map[int]Stat{}, wins: map[int64]*modelPartial{},
	}
}

func statOf(ev *trace.Event) Stat { return Stat{Hits: 1, Bytes: ev.Size, TimeNs: ev.TEnd - ev.TStart} }

func plus(a, b Stat) Stat {
	return Stat{Hits: a.Hits + b.Hits, Bytes: a.Bytes + b.Bytes, TimeNs: a.TimeNs + b.TimeNs}
}

func addTo[K comparable](m map[K]Stat, k K, st Stat) { m[k] = plus(m[k], st) }

func addRow(m map[trace.Kind]map[int]Stat, k trace.Kind, i int, st Stat) {
	if m[k] == nil {
		m[k] = map[int]Stat{}
	}
	addTo(m[k], i, st)
}

func (m *modelPartial) fold(ev *trace.Event) {
	n, src, dst := m.opts.AppSize, int(ev.Rank), int(ev.Peer)
	st := statOf(ev)
	m.events++
	addTo(m.prof, ev.Kind, st)
	if m.window {
		return
	}
	p2p := ev.Kind == trace.KindSend || ev.Kind == trace.KindIsend
	if p2p && src >= 0 && src < n && dst >= 0 && dst < n {
		addTo(m.topo, src*n+dst, st)
	}
	if src >= 0 && src < n {
		addRow(m.dens, ev.Kind, src, st)
	}
	if m.opts.WaitState && ev.Peer >= 0 {
		switch {
		case p2p:
			k := chanKey{src: ev.Rank, dst: ev.Peer, tag: ev.Tag, comm: ev.Comm}
			m.sends[k] = append(m.sends[k], ev.TStart)
		case ev.Kind == trace.KindRecv, ev.Kind == trace.KindWait && ev.Tag >= 0:
			k := chanKey{src: ev.Peer, dst: ev.Rank, tag: ev.Tag, comm: ev.Comm}
			m.recvs[k] = append(m.recvs[k], recvEvt{rank: ev.Rank, tStart: ev.TStart, tEnd: ev.TEnd})
		}
	}
	if w := m.opts.TemporalWindowNs; w > 0 {
		first, last := int(ev.TStart/w), int(ev.TEnd/w)
		m.buckets = max(m.buckets, last+1)
		addRow(m.temporal, ev.Kind, first, Stat{Hits: 1, Bytes: ev.Size})
		for b := first; b <= last; b++ { // time goes to the buckets pro rata
			lo, hi := max(ev.TStart, int64(b)*w), min(ev.TEnd, int64(b+1)*w)
			if hi > lo {
				addRow(m.temporal, ev.Kind, b, Stat{TimeNs: hi - lo})
			}
		}
	}
	if m.opts.Callsites {
		addTo(m.calls, modelCallsite{ctx: ev.Ctx, kind: ev.Kind}, st)
	}
	if m.opts.Sizes && p2p {
		b := 0
		if ev.Size > 1 {
			b = min(bits.Len64(uint64(ev.Size))-1, SizeBuckets-1)
		}
		m.sizes[b] = [2]int64{m.sizes[b][0] + 1, m.sizes[b][1] + ev.Size}
	}
	for _, wm := range m.covering(ev.TStart) {
		wm.fold(ev)
	}
}

// covering returns the windows whose span holds t, minting them.
func (m *modelPartial) covering(t int64) []*modelPartial {
	var out []*modelPartial
	if width, slide := m.opts.WindowNs, m.opts.WindowSlideNs; width > 0 {
		for i := int64(0); i*slide <= t; i++ {
			if t >= i*slide+width {
				continue
			}
			if m.wins[i] == nil {
				m.wins[i] = newModelPartial(0, innerWindowOptions(m.opts), true)
			}
			out = append(out, m.wins[i])
		}
	}
	return out
}

// settle pairs every channel positionally, in time order.
func (m *modelPartial) settle() {
	for k, sends := range m.sends {
		recvs := m.recvs[k]
		slices.Sort(sends)
		slices.SortStableFunc(recvs, func(a, b recvEvt) int {
			return cmp.Or(cmp.Compare(a.tStart, b.tStart), cmp.Compare(a.tEnd, b.tEnd))
		})
		n := min(len(sends), len(recvs))
		for i := 0; i < n; i++ {
			wait := min(sends[i]-recvs[i].tStart, recvs[i].tEnd-recvs[i].tStart)
			// The pair counts in the whole run and in every window covering
			// the receive.
			for _, c := range append(m.covering(recvs[i].tStart), m) {
				c.pairs++
				if wait > 0 {
					l := c.late[int(recvs[i].rank)]
					c.late[int(recvs[i].rank)] = [2]int64{l[0] + wait, l[1] + 1}
				}
			}
		}
		m.sends[k], m.recvs[k] = sends[n:], recvs[n:]
	}
}

func sortedKeys[K comparable, V any](m map[K]V, cmpFn func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmpFn)
	return keys
}

// statTable writes a keyed Stat section: count, then key and stat of every
// non-zero entry, ascending.
func statTable[K comparable](w *pwriter, m map[K]Stat, cmpFn func(a, b K) int, key func(K)) {
	countAt := w.reserve()
	n := 0
	for _, k := range sortedKeys(m, cmpFn) {
		if m[k] != (Stat{}) {
			n++
			key(k)
			w.stat(m[k])
		}
	}
	w.backfill(countAt, n)
}

func kindRows(w *pwriter, rows map[trace.Kind]map[int]Stat) {
	countAt := w.reserve()
	n := 0
	for _, k := range sortedKeys(rows, cmp.Compare[trace.Kind]) {
		at := len(w.buf)
		w.u32(uint32(k))
		statTable(w, rows[k], cmp.Compare[int], func(i int) { w.u32(uint32(i)) })
		if len(w.buf) == at+8 { // a kind without a cell does not travel
			w.buf = w.buf[:at]
			continue
		}
		n++
	}
	w.backfill(countAt, n)
}

// encode is AppendCanonical (pendings, no reset), Flush(false) (reset) or
// Flush(true) (both).
func (m *modelPartial) encode(w *pwriter, pendings, reset bool) {
	o := m.opts
	w.buf = append(w.buf, partialMagic[:]...)
	w.u32(m.appID)
	w.u32(uint32(o.AppSize))
	var flags uint32
	for i, on := range []bool{o.WaitState, o.TemporalWindowNs > 0, o.Callsites, o.Sizes, pendings, false, o.WindowNs > 0} {
		if on {
			flags |= 1 << i
		}
	}
	w.u32(flags)
	w.i64(o.TemporalWindowNs)
	if o.WindowNs > 0 {
		w.i64(o.WindowNs)
		w.i64(o.WindowSlideNs)
	}
	w.i64(m.events)
	statTable(w, m.prof, cmp.Compare[trace.Kind], func(k trace.Kind) { w.u32(uint32(k)) })
	if !m.window {
		statTable(w, m.topo, cmp.Compare[int], func(i int) { w.u32(uint32(i)) })
		kindRows(w, m.dens)
	}
	if o.WaitState {
		if !m.window {
			m.settle()
		}
		w.i64(m.pairs)
		ranks := sortedKeys(m.late, cmp.Compare[int])
		w.u32(uint32(len(ranks)))
		for _, r := range ranks {
			w.u32(uint32(r))
			w.i64(m.late[r][0])
			w.i64(m.late[r][1])
		}
		for side := 0; side < 2 && !m.window; side++ {
			if !pendings {
				w.u32(0)
				continue
			}
			countAt := w.reserve()
			n := 0
			for _, k := range sortedKeys(m.sends, cmpChanKey) {
				if side == 0 && len(m.sends[k]) > 0 {
					n++
					w.chanKey(k)
					w.u32(uint32(len(m.sends[k])))
					for _, t := range m.sends[k] {
						w.i64(t)
					}
				}
			}
			for _, k := range sortedKeys(m.recvs, cmpChanKey) {
				if side == 1 && len(m.recvs[k]) > 0 {
					n++
					w.chanKey(k)
					w.u32(uint32(len(m.recvs[k])))
					for _, rv := range m.recvs[k] {
						w.u32(uint32(rv.rank))
						w.i64(rv.tStart)
						w.i64(rv.tEnd)
					}
				}
			}
			w.backfill(countAt, n)
		}
	}
	if o.TemporalWindowNs > 0 {
		w.u32(uint32(m.buckets))
		kindRows(w, m.temporal)
	}
	if o.Callsites {
		statTable(w, m.calls, cmpModelCallsite, func(k modelCallsite) { w.u32(k.ctx); w.u32(uint32(k.kind)) })
	}
	if o.Sizes {
		bs := sortedKeys(m.sizes, cmp.Compare[int])
		w.u32(uint32(len(bs)))
		for _, b := range bs {
			w.u32(uint32(b))
			w.i64(m.sizes[b][0])
			w.i64(m.sizes[b][1])
		}
	}
	if o.WindowNs > 0 {
		countAt := w.reserve()
		n := 0
		for _, i := range sortedKeys(m.wins, cmp.Compare[int64]) {
			if wm := m.wins[i]; wm.events > 0 || wm.pairs > 0 {
				n++
				w.i64(i)
				lenAt := w.reserve()
				wm.encode(w, false, reset)
				w.backfill(lenAt, len(w.buf)-lenAt-4)
			}
		}
		w.backfill(countAt, n)
	}
	if reset {
		sends, recvs, wins := m.sends, m.recvs, m.wins
		*m = *newModelPartial(m.appID, m.opts, m.window)
		m.wins = wins // each reset by its own encode
		if !pendings {
			m.sends, m.recvs = sends, recvs
		}
	}
}

func (m *modelPartial) bytes(pendings, reset bool) []byte {
	var w pwriter
	m.encode(&w, pendings, reset)
	return w.buf
}

// The steps of a model run.
const (
	opFold        = iota // events straight into the partial
	opFlushDelta         // Flush(false)
	opFlushFinal         // Flush(true)
	opMergeReset         // events into a long-lived replica, MergeReset
	opMerge              // events into a fresh partial, Merge
	opMergeEnc           // sends (or receives) into a fresh partial, MergeEncoded of its bytes
	opLaggard            // events of a rank that stayed silent: windows everyone else left
	indexModelOps        // (AppendCanonical runs after every step)
)

// indexModelRun drives one partial and the model through ops and compares
// their bytes after every step; it returns what went wrong.
func indexModelRun(seed int64, slideNs int64, ops []int) error {
	const appSize = 5
	rng := rand.New(rand.NewSource(seed))
	opts := windowedAllOpts(appSize, slideNs)
	pp, model := NewPartial(2, opts), newModelPartial(2, NewPartial(2, opts).Options(), false)
	rep := NewReplica(2, opts)
	// Ranks 0-3 emit in every chunk, each on its own clock; rank 4 only in
	// opLaggard steps, so its events land in windows that went idle.
	clock := make([]int64, appSize)
	chunk := func(ranks []int32) []trace.Event {
		evs := genRankEvents(rng, appSize, 30+rng.Intn(60))
		var out []trace.Event
		for _, perRank := range evs {
			for _, ev := range perRank {
				ev.Rank = ranks[rng.Intn(len(ranks))]
				dur := ev.TEnd - ev.TStart
				ev.TStart = clock[ev.Rank] + int64(rng.Intn(60))
				ev.TEnd = ev.TStart + dur
				clock[ev.Rank] = ev.TEnd
				out = append(out, ev)
			}
		}
		return out
	}
	busy := []int32{0, 1, 2, 3}
	for step, op := range ops {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("seed %d slide %d step %d (op %d of %v): %s", seed, slideNs, step, op, ops, fmt.Sprintf(format, args...))
		}
		switch op {
		case opFold, opLaggard:
			ranks := busy
			if op == opLaggard {
				ranks = []int32{4}
			}
			for _, ev := range chunk(ranks) {
				pp.AddEvent(&ev)
				model.fold(&ev)
			}
		case opFlushDelta, opFlushFinal:
			final := op == opFlushFinal
			if got, want := pp.Flush(nil, final), model.bytes(final, true); !bytes.Equal(got, want) {
				return fail("Flush(%v): %d bytes, the model has %d", final, len(got), len(want))
			}
			if err := indexAllClear(pp); err != nil {
				return fail("after Flush(%v): %v", final, err)
			}
		case opMergeReset:
			for _, ev := range chunk(busy) {
				rep.Fold(&ev)
				model.fold(&ev)
			}
			if err := pp.MergeReset(rep.Partial()); err != nil {
				return fail("%v", err)
			}
			if err := indexAllClear(rep.Partial()); err != nil {
				return fail("the merged replica: %v", err)
			}
		case opMerge, opMergeEnc:
			// An encode pairs what the side partial holds, which is only
			// right if it cannot pair anything: one side of every channel
			// goes through it, the other straight in.
			side, viaSide := NewPartial(2, opts), rng.Intn(2)
			for _, ev := range chunk(busy) {
				model.fold(&ev)
				recvSide := ev.Kind == trace.KindRecv || ev.Kind == trace.KindWait
				if op == opMergeEnc && recvSide == (viaSide == 0) {
					pp.AddEvent(&ev)
				} else {
					side.AddEvent(&ev)
				}
			}
			var err error
			switch {
			case op == opMerge:
				err = pp.Merge(side)
			case rng.Intn(2) == 0:
				err = pp.MergeEncoded(side.AppendCanonical(nil))
			default:
				err = pp.MergeEncoded(side.Flush(nil, true))
			}
			if err != nil {
				return fail("%v", err)
			}
		}
		if got, want := pp.AppendCanonical(nil), model.bytes(true, false); !bytes.Equal(got, want) {
			return fail("AppendCanonical: %d bytes, the model has %d", len(got), len(want))
		}
		if err := indexInvariants(pp); err != nil {
			return fail("%v", err)
		}
	}
	return nil
}

// indexAllClear reads the dense state behind a reset directly: every
// matrix cell and every index bit of the partial must be zero — a stale
// cell under a cleared bit would never be seen again — and no window may
// stay listed as written.
func indexAllClear(pp *Partial) error {
	for i, wp := range pp.Windows.wins {
		if wp.listed {
			return fmt.Errorf("window %d is still listed as written", i)
		}
	}
	mat := pp.Topology.mat
	for i, c := range mat.cells {
		if c != (Stat{}) {
			return fmt.Errorf("the matrix keeps %+v in cell %d", c, i)
		}
	}
	for w, word := range mat.touched {
		if word != 0 {
			return fmt.Errorf("the matrix keeps index word %d = %#x", w, word)
		}
	}
	if n := len(pp.Windows.written); n != 0 {
		return fmt.Errorf("%d windows still in the written list", n)
	}
	return nil
}

// indexInvariants checks what each walker relies on: a non-zero cell is
// under a set bit, a channel holding both sides is in the unsettled list,
// a window holding events or pairs is in the written list.
func indexInvariants(pp *Partial) error {
	mat := pp.Topology.mat
	for i, c := range mat.cells {
		if g := i / cellsPerBit; c != (Stat{}) && mat.touched[g/64]&(1<<(g%64)) == 0 {
			return fmt.Errorf("cell %d is non-zero under a clear bit", i)
		}
	}
	for _, q := range pp.Waits.chans.recs {
		if len(q.sends) > 0 && len(q.recvs) > 0 && !q.listed {
			return fmt.Errorf("channel %+v holds both sides outside the unsettled list", q.key)
		}
		if q.listed && !slices.Contains(pp.Waits.unsettled, q) {
			return fmt.Errorf("channel %+v is marked listed but is not in the list", q.key)
		}
	}
	for i, wp := range pp.Windows.wins {
		if (wp.Profiler.events > 0 || wp.Waits.pairs > 0) && !wp.listed {
			return fmt.Errorf("window %d holds events or pairs outside the written list", i)
		}
		if wp.listed != slices.Contains(pp.Windows.written, i) {
			return fmt.Errorf("window %d: listed = %v, but the written list says otherwise", i, wp.listed)
		}
	}
	return nil
}

// TestTouchedIndexMatchesDenseModel: random sequences of every operation
// that writes, walks or clears an index, on a windowed all-modules partial
// — canonical bytes equal to the model's after every step, dense state
// all-zero behind every reset.
func TestTouchedIndexMatchesDenseModel(t *testing.T) {
	// Pinned: a window is written, flushed, idle for an epoch, written
	// again by the laggard (and credited with the pairs its receives
	// close), and merged into from every side in between.
	pinned := []int{opFold, opLaggard, opFlushDelta, opFold, opFlushDelta, opFold, opFlushDelta, opLaggard, opMergeReset,
		opFlushDelta, opLaggard, opMergeEnc, opMerge, opFlushFinal, opLaggard, opMergeEnc, opFlushDelta, opFlushFinal}
	for _, slide := range []int64{0, 500} {
		if err := indexModelRun(1, slide, pinned); err != nil {
			t.Fatal(err)
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]int, 8+rng.Intn(16))
		for i := range ops {
			ops[i] = rng.Intn(indexModelOps)
		}
		if err := indexModelRun(seed, []int64{0, 500}[rng.Intn(2)], ops); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
