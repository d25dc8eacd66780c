package analysis

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"

	"repro/internal/trace"
)

// WindowedModule is the time-resolved analysis layer: it slices virtual
// time into windows and keeps one inner Partial per window, so the
// report answers "what was the application doing during [iW, iW+W)"
// instead of only whole-run aggregates. Windows are tumbling when the
// slide equals the window width and sliding (overlapping) when the slide
// is smaller; every event is folded into each window covering its start
// time, so a sliding configuration costs about window/slide times the
// tumbling fold work.
//
// The inner per-window partials carry the profiler, topology, density,
// wait-state and call-site modules (per the outer selection) and reuse
// the whole Partial merge machinery: window i merged across leaves,
// replicas or epochs is byte-identical to window i computed flat, the
// same associative-commutative argument the reduction tree runs on.
// Two deliberate deviations from the outer Partial:
//
//   - Inner partials always carry AppID 0. The window index is the key;
//     replicas (which fold under AppID 0) and tree leaves (which fold
//     under the real AppID) must produce mergeable windows.
//
//   - Inner wait-state modules are lazy: they never settle while the
//     engine merges, flushes or encodes them. Settling inside a window
//     would pair a channel's sends and recvs positionally *within the
//     window's slice of the queues*, which is not a prefix of the
//     channel's whole-run FIFO matching when a channel straddles a
//     window boundary — early pairing would make "merge of all sealed
//     windows == whole-run partial" false. Pairing happens at read time
//     (report rendering), when the windows are complete.
//
// A delta encode costs what the epoch wrote: it visits the written list,
// not the series, so a seal does not grow with the session's age.
//
// Lateness is deliberately NOT part of this module: late events always
// merge into their (still-open) window, so window content is exact and
// byte-identical whatever the arrival order. The arrival-time story —
// lag gauges and per-window completeness bounds — lives in
// WindowTracker, outside the canonical content.
type WindowedModule struct {
	mu       sync.Mutex
	windowNs int64
	slideNs  int64
	inner    PartialOptions
	wins     map[int64]*Partial

	// written lists the windows folded or merged into since the last reset
	// encode, each once (Partial.listed): every window that holds events is
	// among them, so a delta encode visits these and not the whole series,
	// whatever the session's age. flushed lists the windows the last reset
	// encode wrote and kept warm; the next one releases those nobody wrote
	// to since.
	written, flushed []int64

	// cur caches the window the previous event of a tumbling series fell
	// into (nil = nothing cached): consecutive events of a pack almost
	// always share it, and the hit skips the map. It must be dropped
	// wherever a window leaves wins or the written list.
	curIdx int64
	cur    *Partial
}

// maxDecodedWindows caps the window count a decoded partial may claim.
// A run long enough to exceed it would hold > 1M live windows in memory
// anyway; on the wire a larger count is hostile input and fails loudly.
const maxDecodedWindows = 1 << 20

// innerWindowOptions derives the per-window module selection from the
// outer partial's: the time-resolved modules of the outer set, minus the
// temporal map (windows subsume it), the size histogram (whole-run
// shape) and the windows themselves (no recursion).
func innerWindowOptions(o PartialOptions) PartialOptions {
	return PartialOptions{
		AppSize:   o.AppSize,
		WaitState: o.WaitState,
		Callsites: o.Callsites,
	}
}

// NewWindowedModule creates a windowed series with the given window
// width and slide (both in virtual nanoseconds; slide must be in
// (0, windowNs]) over the given inner module selection.
func NewWindowedModule(windowNs, slideNs int64, inner PartialOptions) *WindowedModule {
	return &WindowedModule{
		windowNs: windowNs,
		slideNs:  slideNs,
		inner:    inner,
		wins:     make(map[int64]*Partial),
	}
}

// newWindowPartial mints one inner per-window partial: AppID 0 and a
// lazy wait-state module (see the type comment).
func (m *WindowedModule) newWindowPartial() *Partial {
	wp := NewPartial(0, m.inner)
	if wp.Waits != nil {
		wp.Waits.lazy = true
	}
	return wp
}

// Window returns the window width in virtual nanoseconds.
func (m *WindowedModule) Window() int64 { return m.windowNs }

// Slide returns the slide in virtual nanoseconds (== Window for
// tumbling windows).
func (m *WindowedModule) Slide() int64 { return m.slideNs }

// Add folds one event into every window covering its start time.
func (m *WindowedModule) Add(ev *trace.Event) {
	m.mu.Lock()
	m.fold(ev)
	m.mu.Unlock()
}

// fold is Add for a caller that owns m (see ProfilerModule.fold). The
// inner partials fold without their locks: owning the WindowedModule
// covers them too.
func (m *WindowedModule) fold(ev *trace.Event) {
	t := ev.TStart
	if t < 0 {
		t = 0
	}
	hi := t / m.slideNs
	if m.slideNs == m.windowNs {
		// Tumbling: one window per event.
		if m.cur == nil || hi != m.curIdx {
			m.curIdx, m.cur = hi, m.window(hi)
		}
		m.cur.fold(ev)
		return
	}
	// Sliding: every window i with i*slide <= t < i*slide+window.
	lo := (t-m.windowNs)/m.slideNs + 1
	if t < m.windowNs {
		lo = 0 // the series starts at virtual time zero
	}
	for i := lo; i <= hi; i++ {
		m.window(i).fold(ev)
	}
}

// window returns window i's inner partial for writing: minted on first
// use, and entered in the written list.
func (m *WindowedModule) window(i int64) *Partial {
	wp := m.wins[i]
	if wp == nil {
		wp = m.newWindowPartial()
		m.wins[i] = wp
	}
	if !wp.listed {
		wp.listed = true
		m.written = append(m.written, i)
	}
	return wp
}

// Len reports how many windows hold content.
func (m *WindowedModule) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.wins)
}

// Indices returns the populated window indices in ascending order.
func (m *WindowedModule) Indices() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, 0, len(m.wins))
	for i := range m.wins {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Series extracts one per-window value across the populated index range
// (gaps filled with zero), for sparkline rendering. fn reads one window
// and runs with the series locked, so it sees no half-folded pack; it may
// use the window's locked accessors but must not call back into m.
func (m *WindowedModule) Series(fn func(*Partial) float64) (firstIdx int64, values []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.wins) == 0 {
		return 0, nil
	}
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range m.wins {
		first, last = min(first, i), max(last, i)
	}
	values = make([]float64, last-first+1)
	for i, wp := range m.wins {
		values[i-first] = fn(wp)
	}
	return first, values
}

// Merge folds another windowed series into this one (copy semantics:
// o is read, not consumed).
func (m *WindowedModule) Merge(o *WindowedModule) error {
	if o == nil {
		return nil
	}
	if m.windowNs != o.windowNs || m.slideNs != o.slideNs || m.inner != o.inner {
		return fmt.Errorf("analysis: merging incompatible window series (%d/%d vs %d/%d)",
			m.windowNs, m.slideNs, o.windowNs, o.slideNs)
	}
	// Snapshot o's windows, then merge them with m locked: a pack fold
	// owning m writes the inner partials without their own mutexes, which
	// only the inner Merge takes.
	o.mu.Lock()
	src := maps.Clone(o.wins)
	o.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, wp := range src {
		if err := m.window(i).Merge(wp); err != nil {
			return fmt.Errorf("analysis: window %d: %w", i, err)
		}
	}
	return nil
}

// mergeReset folds o into m with move semantics and leaves o empty; a
// window m has never seen moves wholesale (no allocation, no copying).
// The caller must own o exclusively (it is a paused replica).
func (m *WindowedModule) mergeReset(o *WindowedModule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o.cur = nil // windows are about to leave o.wins and its written list
	for i, wp := range o.wins {
		// Only a window o listed can bring events, so only those enter m's
		// written list; the others are merged for their pending queues.
		written := wp.listed
		wp.listed = false
		if m.wins[i] == nil {
			m.wins[i] = wp
			delete(o.wins, i)
		} else if err := m.wins[i].MergeReset(wp); err != nil {
			// Both sides were minted by this module pair from identical
			// options; a mismatch is a programming error, not data.
			panic(fmt.Sprintf("analysis: window %d epoch merge: %v", i, err))
		}
		if written {
			m.window(i)
		}
	}
	o.written = o.written[:0]
}

// EnableWindows adds the windowed series to the pipeline's state, and so
// (through PartialOptions) the per-window sections to every leaf and
// replica partial. windowNs is the window width in virtual nanoseconds;
// slideNs is the slide (0 = tumbling). Call after every other Enable* the
// run will use — the inner per-window module selection mirrors what is
// enabled at this point — and before EnableReplicas.
func (p *Pipeline) EnableWindows(windowNs, slideNs int64) (*WindowedModule, error) {
	if windowNs <= 0 {
		return nil, fmt.Errorf("analysis: window width %d must be positive", windowNs)
	}
	if slideNs == 0 {
		slideNs = windowNs
	}
	if slideNs < 0 || slideNs > windowNs {
		return nil, fmt.Errorf("analysis: window slide %d outside (0, %d]", slideNs, windowNs)
	}
	if p.state.Windows != nil {
		return nil, p.alreadyEnabled("windows")
	}
	o := &p.state.opts
	o.WindowNs, o.WindowSlideNs = windowNs, slideNs
	p.state.Windows = NewWindowedModule(windowNs, slideNs, innerWindowOptions(*o))
	return p.state.Windows, nil
}
