package analysis

import (
	"fmt"
	"maps"
	"math"
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
// A window carries what anything reads from one: the profiler kind table
// (events and bytes per window) and, with wait-state on, the late-sender
// sums. Its inner partial has no other module, always carries AppID 0 (the
// window index is the key, and replicas, which fold under AppID 0, and
// tree leaves, which fold under the real AppID, must produce mergeable
// windows), and merges by plain addition: window i merged across leaves,
// replicas or epochs is byte-identical to window i computed flat.
//
// Wait-state pairs are not formed per window. The owning partial's module
// pairs each channel once, in its whole-run FIFO order, and credits every
// pair to the windows covering the receive's start time — the fold's clamp
// and cover rule — together with its late-sender wait, at the moment the
// pair settles. A channel that straddles a window boundary therefore pairs
// as it does in the whole run, Σ per-window pairs and late-sender wait of a
// tumbling series equal the whole run's, and the windows of a delta carry
// the wait the delta's settled sums carry. Series settles the owning
// module before it reads, so a reader sees every pair its queues hold.
//
// An encode visits the written list, not the series: a seal costs what
// was written since the last one, whatever the session's age.
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
	// waits is the owning partial's wait-state module (nil without one): it
	// credits its pairs here, and Series settles it first.
	waits *WaitStateModule

	// written lists the windows folded, credited or merged into since the
	// last reset encode, each once (Partial.listed): every window that holds
	// content is among them, so an encode visits these and not the whole
	// series, whatever the session's age.
	written []int64

	// cur caches the window the previous write went to (nil = nothing
	// cached): consecutive events of a pack, and consecutive pairs of a
	// channel, almost always share it, and the hit skips the map. It must
	// be dropped wherever a window leaves wins or the written list.
	curIdx int64
	cur    *Partial
}

// maxDecodedWindows caps the window count a decoded partial may claim.
// A run long enough to exceed it would hold > 1M live windows in memory
// anyway; on the wire a larger count is hostile input and fails loudly.
const maxDecodedWindows = 1 << 20

// innerWindowOptions derives a window's module selection from the outer
// partial's: the app size, and the wait-state sums when they are on.
func innerWindowOptions(o PartialOptions) PartialOptions {
	return PartialOptions{AppSize: o.AppSize, WaitState: o.WaitState}
}

// NewWindowedModule creates a windowed series with the given window
// width and slide (both in virtual nanoseconds; slide must be in
// (0, windowNs]) over the given inner module selection. waits, when
// non-nil, is the owning partial's wait-state module: from now on it
// credits its pairs to the series.
func NewWindowedModule(windowNs, slideNs int64, inner PartialOptions, waits *WaitStateModule) *WindowedModule {
	m := &WindowedModule{
		windowNs: windowNs,
		slideNs:  slideNs,
		inner:    inner,
		wins:     make(map[int64]*Partial),
	}
	if waits != nil && inner.WaitState {
		m.waits, waits.wins = waits, m
	}
	return m
}

// newWindowPartial mints one window: AppID 0, the profiler and, per the
// inner selection, the wait-state sums (see the type comment).
func (m *WindowedModule) newWindowPartial() *Partial {
	wp := &Partial{opts: m.inner, Profiler: &ProfilerModule{}}
	if m.inner.WaitState {
		wp.Waits = NewWaitStateModule(m.inner.AppSize)
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
	lo, hi := m.cover(ev.TStart)
	for i := lo; i <= hi; i++ {
		m.at(i).Profiler.fold(ev)
	}
}

// credit adds one settled pair to every window covering the receive's
// start time t, and its late-sender wait, when positive, to the receiving
// rank (pair has checked it). The caller owns m, as for fold.
func (m *WindowedModule) credit(t int64, rank int32, wait int64) {
	lo, hi := m.cover(t)
	for i := lo; i <= hi; i++ {
		ws := m.at(i).Waits
		ws.pairs++
		if wait > 0 {
			ws.lateNs[rank] += wait
			ws.lateHits[rank]++
		}
	}
}

// cover returns the windows [lo, hi] covering virtual time t: every i with
// i*slide <= t < i*slide+window, a negative t clamped to zero (the series
// starts at virtual time zero). Tumbling windows give lo == hi.
func (m *WindowedModule) cover(t int64) (lo, hi int64) {
	t = max(t, 0)
	if t < m.windowNs {
		return 0, t / m.slideNs
	}
	return (t-m.windowNs)/m.slideNs + 1, t / m.slideNs
}

// at returns window i for writing, through the one-window cache.
func (m *WindowedModule) at(i int64) *Partial {
	if m.cur == nil || i != m.curIdx {
		m.curIdx, m.cur = i, m.window(i)
	}
	return m.cur
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

// AppendSeries appends one per-window value across the populated index
// range (gaps filled with zero), for sparkline rendering, to dst and
// returns the first index and the extended slice. It settles the owning
// wait-state module first (Waits before Windows, the order Partial
// declares them), so the windows hold every pair its queues can form. fn
// reads one window and runs with the series locked, so it sees no
// half-folded pack; it may use the window's locked accessors but must not
// call back into m.
func (m *WindowedModule) AppendSeries(dst []float64, fn func(*Partial) float64) (firstIdx int64, values []float64) {
	if m.waits != nil {
		m.waits.mu.Lock()
		defer m.waits.mu.Unlock()
		m.waits.settleLocked()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.wins) == 0 {
		return 0, dst
	}
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range m.wins {
		first, last = min(first, i), max(last, i)
	}
	dst, out := grow(dst, int(last-first+1))
	for i, wp := range m.wins {
		out[i-first] = fn(wp)
	}
	return first, dst
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
	// only the inner merges take.
	o.mu.Lock()
	src := maps.Clone(o.wins)
	o.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, wp := range src {
		w := m.window(i)
		w.Profiler.Merge(wp.Profiler)
		if w.Waits != nil {
			w.Waits.Merge(wp.Waits)
		}
	}
	return nil
}

// mergeReset folds o into m with move semantics and leaves o empty; a
// window m has never seen moves wholesale (no allocation, no copying).
// Only a window o listed holds content, so only those are visited. The
// caller must own o exclusively (it is a paused replica).
func (m *WindowedModule) mergeReset(o *WindowedModule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o.cur = nil // windows are about to leave o.wins and its written list
	for _, i := range o.written {
		wp := o.wins[i]
		wp.listed = false
		if w := m.wins[i]; w == nil {
			m.wins[i] = wp
			delete(o.wins, i)
		} else {
			w.Profiler.mergeReset(wp.Profiler)
			if w.Waits != nil {
				w.Waits.mergeResetFull(wp.Waits)
			}
		}
		m.window(i)
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
	if trace.WindowOverlap(windowNs, slideNs) > trace.MaxWindowOverlap {
		return nil, fmt.Errorf("analysis: window %d / slide %d overlaps more than %d windows",
			windowNs, slideNs, trace.MaxWindowOverlap)
	}
	if p.state.Windows != nil {
		return nil, p.alreadyEnabled("windows")
	}
	o := &p.state.opts
	o.WindowNs, o.WindowSlideNs = windowNs, slideNs
	p.state.Windows = NewWindowedModule(windowNs, slideNs, innerWindowOptions(*o), p.state.Waits)
	return p.state.Windows, nil
}
