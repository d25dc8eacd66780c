package analysis

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// WindowTracker is the arrival-time side of the windowed analysis: it
// observes every event the engine folds and measures the distance
// between the event's virtual timestamp and the analyzer's virtual
// clock at fold time — the event→report-update latency — plus a
// per-window lateness model.
//
// It is deliberately NOT part of the canonical window content. Window
// partials are byte-identical whatever order events arrive in (a late
// event merges into its still-open window like any other); what arrival
// order changes is *when* a window's numbers became trustworthy, and
// that is what the tracker accounts:
//
//   - Lag: fold-clock minus event timestamp, clamped at zero. Under a
//     push-rate burst the analyzer's clock falls behind the stream and
//     lag rises; after the burst it drains back under the SLO. The
//     gauges window.lag_ns / window.max_lag_ns surface it.
//
//   - Lateness: an event is late for its window when, at fold time, the
//     effective clock (max of analyzer clock and event-time watermark)
//     has already passed the window's end by more than the grace
//     period — the window "should have sealed" before the event showed
//     up. Late events still merge into content, so the per-window
//     completeness bound onTime/(onTime+late) is conservative: the
//     true window content is always at least what an on-time-only
//     reading would have shown.
//
// Concurrency: the clock, watermark and lag ride atomics; the
// per-window counts take one mutex per event. The tracker is shared
// across replicas/lanes, so its counts are exact even when the fold
// path itself is shared-nothing.
type WindowTracker struct {
	windowNs int64
	slideNs  int64
	graceNs  int64

	now       atomic.Int64 // analyzer virtual clock (SetNow, monotonic)
	watermark atomic.Int64 // max event timestamp observed
	lagNs     atomic.Int64 // most recent fold lag
	maxLagNs  atomic.Int64 // high-water fold lag
	events    atomic.Int64
	late      atomic.Int64

	mu     sync.Mutex
	onTime map[int64]int64 // per-window on-time event counts
	lateBy map[int64]int64 // per-window late event counts

	tm             *telemetry.WindowMetrics
	pubEv, pubLate int64 // counter values already published (deltas)
}

// NewWindowTracker creates a tracker for the given window geometry and
// lateness grace period (all virtual nanoseconds; slideNs 0 or out of
// range means tumbling, like NewPartial). tm may be nil.
func NewWindowTracker(windowNs, slideNs, graceNs int64, tm *telemetry.WindowMetrics) *WindowTracker {
	if slideNs <= 0 || slideNs > windowNs {
		slideNs = windowNs
	}
	if graceNs < 0 {
		graceNs = 0
	}
	return &WindowTracker{
		windowNs: windowNs,
		slideNs:  slideNs,
		graceNs:  graceNs,
		onTime:   make(map[int64]int64),
		lateBy:   make(map[int64]int64),
		tm:       tm,
	}
}

// SetNow advances the analyzer's virtual clock (monotonic: an older
// timestamp is ignored). Call from the ingest loop with the recorder or
// arrival clock each time a block is absorbed.
func (tr *WindowTracker) SetNow(now int64) {
	for {
		n := tr.now.Load()
		if now <= n || tr.now.CompareAndSwap(n, now) {
			return
		}
	}
}

// OnEvent observes one folded event. Safe for concurrent callers.
func (tr *WindowTracker) OnEvent(ev *trace.Event) {
	t := ev.TStart
	if t < 0 {
		t = 0
	}
	for {
		w := tr.watermark.Load()
		if t <= w || tr.watermark.CompareAndSwap(w, t) {
			break
		}
	}
	now := tr.now.Load()
	lag := now - t
	if lag < 0 {
		lag = 0
	}
	tr.lagNs.Store(lag)
	for {
		mx := tr.maxLagNs.Load()
		if lag <= mx || tr.maxLagNs.CompareAndSwap(mx, lag) {
			break
		}
	}
	tr.events.Add(1)

	// Lateness is judged against the last window that covers the event
	// (index by slide), whose end is the moment the event stopped being
	// expectable. The effective clock includes the watermark so pure
	// reordering — later events already seen — marks stragglers late
	// even when the analyzer clock itself lags the whole stream.
	idx := t / tr.slideNs
	end := idx*tr.slideNs + tr.windowNs
	eff := now
	if w := tr.watermark.Load(); w > eff {
		eff = w
	}
	isLate := eff-end > tr.graceNs
	tr.mu.Lock()
	if isLate {
		tr.lateBy[idx]++
	} else {
		tr.onTime[idx]++
	}
	tr.mu.Unlock()
	if isLate {
		tr.late.Add(1)
	}
}

// LagNs returns the most recent event→fold lag.
func (tr *WindowTracker) LagNs() int64 { return tr.lagNs.Load() }

// MaxLagNs returns the high-water event→fold lag.
func (tr *WindowTracker) MaxLagNs() int64 { return tr.maxLagNs.Load() }

// Events returns how many events the tracker observed.
func (tr *WindowTracker) Events() int64 { return tr.events.Load() }

// LateEvents returns how many observed events were late for their
// window.
func (tr *WindowTracker) LateEvents() int64 { return tr.late.Load() }

// WindowCounts returns window idx's on-time and late event counts.
func (tr *WindowTracker) WindowCounts(idx int64) (onTime, late int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.onTime[idx], tr.lateBy[idx]
}

// Completeness returns window idx's completeness bound in [0, 1]: the
// fraction of the window's events that arrived before it should have
// sealed. Because late events still merge into the window's content,
// the bound is conservative — the rendered window always holds at least
// this fraction of itself. An untouched window is complete.
func (tr *WindowTracker) Completeness(idx int64) float64 {
	on, late := tr.WindowCounts(idx)
	total := on + late
	if total == 0 {
		return 1
	}
	return float64(on) / float64(total)
}

// WindowIndices returns the distinct window indices the tracker has
// counted events for, in no particular order.
func (tr *WindowTracker) WindowIndices() []int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]int64, 0, len(tr.onTime)+len(tr.lateBy))
	for idx := range tr.onTime {
		out = append(out, idx)
	}
	for idx := range tr.lateBy {
		if _, ok := tr.onTime[idx]; !ok {
			out = append(out, idx)
		}
	}
	return out
}

// WindowsObserved returns how many distinct windows the tracker has
// counted events for.
func (tr *WindowTracker) WindowsObserved() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := len(tr.onTime)
	for idx := range tr.lateBy {
		if _, ok := tr.onTime[idx]; !ok {
			n++
		}
	}
	return n
}

// Publish flushes the tracker's state to its telemetry bundle: gauges
// absolutely, counters as deltas since the previous publication. Call
// from the sampling loop (or once at end of run); free when no bundle
// is attached.
func (tr *WindowTracker) Publish() {
	if tr.tm == nil {
		return
	}
	ev, lt := tr.events.Load(), tr.late.Load()
	tr.mu.Lock()
	dEv, dLt := ev-tr.pubEv, lt-tr.pubLate
	tr.pubEv, tr.pubLate = ev, lt
	open := len(tr.onTime)
	for idx := range tr.lateBy {
		if _, ok := tr.onTime[idx]; !ok {
			open++
		}
	}
	tr.mu.Unlock()
	tr.tm.OnPublish(tr.lagNs.Load(), tr.maxLagNs.Load(), dEv, dLt, open)
}

// AttachWindowTracker wires a tracker into the pipeline's fold paths: a
// tap on the locked pack folds (board and fused paths) and, via Pipeline.
// NewReplica, on every replica's fold dispatcher. Call after EnableWindows
// and before EnableReplicas or any replica/lane creation.
func (p *Pipeline) AttachWindowTracker(tr *WindowTracker) error {
	if err := p.addTap("windowlag", tr.OnEvent); err != nil {
		return err
	}
	p.mu.Lock()
	p.tracker = tr
	p.mu.Unlock()
	return nil
}

// WindowTracker returns the pipeline's attached tracker (nil if none).
func (p *Pipeline) WindowTracker() *WindowTracker {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tracker
}
