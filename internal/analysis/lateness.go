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
// Concurrency: the tracker is shared across replicas and lanes, so its
// counts are exact even when the fold path itself is shared-nothing. An
// event is not counted into it directly: each fold goroutine counts its
// events in a WindowTally of its own, in plain fields, and commits the
// tally once per pack — a CAS each for the watermark and the lag
// high-water, an add per counter, and one mutex for the per-window counts.
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
	counts map[int64][2]int64 // per window: on-time and late events

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
		counts:   make(map[int64][2]int64),
		tm:       tm,
	}
}

// SetNow advances the analyzer's virtual clock (monotonic: an older
// timestamp is ignored). Call from the ingest loop with the recorder or
// arrival clock each time a block is absorbed.
func (tr *WindowTracker) SetNow(now int64) { raise(&tr.now, now) }

// WindowTally is one fold goroutine's pending share of a WindowTracker:
// what Observe counted since the last Commit. It reads the tracker's clock
// and watermark at the pack's first event and carries its own watermark
// through the pack, so on one goroutine the counts, lag and watermark are
// those of observing each event against the tracker itself. A tally has
// one owner: a replica's, or whoever holds the pipeline state's locks.
type WindowTally struct {
	tr *WindowTracker
	// now and the watermark are the tracker's at the pack's first event,
	// the watermark raised by the pack's own; the clock does not move
	// within a pack, so the lags follow from the pack's lowest and last
	// timestamps.
	now, watermark, minT, lastT int64
	// runs holds the per-window counts, one run per change of window; the
	// last run's window starts at lo, and its events are late once the
	// effective clock passes due.
	runs    []windowRun
	lo, due int64
}

// windowRun counts consecutive observed events of one window.
type windowRun struct{ idx, onTime, late int64 }

// NewTally returns a tally that commits into tr.
func (tr *WindowTracker) NewTally() *WindowTally { return &WindowTally{tr: tr} }

// Observe counts one folded event.
func (ta *WindowTally) Observe(ev *trace.Event) {
	t := max(ev.TStart, 0)
	// Lateness is judged against the last window that covers the event
	// (index by slide), whose end is the moment the event stopped being
	// expectable. The effective clock includes the watermark so pure
	// reordering — later events already seen — marks stragglers late
	// even when the analyzer clock itself lags the whole stream.
	n := len(ta.runs)
	if n == 0 || t < ta.lo || t-ta.lo >= ta.tr.slideNs {
		tr := ta.tr
		if n == 0 {
			ta.now, ta.watermark, ta.minT = tr.now.Load(), tr.watermark.Load(), t
		}
		idx := t / tr.slideNs
		ta.lo = idx * tr.slideNs
		ta.due = ta.lo + tr.windowNs + tr.graceNs
		ta.runs = append(ta.runs, windowRun{idx: idx})
		n++
	}
	ta.watermark = max(ta.watermark, t)
	ta.minT = min(ta.minT, t)
	ta.lastT = t
	if run := &ta.runs[n-1]; max(ta.now, ta.watermark) > ta.due {
		run.late++
	} else {
		run.onTime++
	}
}

// Commit publishes what the tally counted since the last Commit and
// empties it. A nil or empty tally commits nothing.
func (ta *WindowTally) Commit() {
	if ta == nil || len(ta.runs) == 0 {
		return
	}
	tr := ta.tr
	raise(&tr.watermark, ta.watermark)
	tr.lagNs.Store(max(ta.now-ta.lastT, 0))
	raise(&tr.maxLagNs, ta.now-ta.minT)
	var events, late int64
	tr.mu.Lock()
	for _, r := range ta.runs {
		c := tr.counts[r.idx]
		tr.counts[r.idx] = [2]int64{c[0] + r.onTime, c[1] + r.late}
		events += r.onTime + r.late
		late += r.late
	}
	tr.mu.Unlock()
	tr.events.Add(events)
	tr.late.Add(late)
	ta.runs = ta.runs[:0]
}

// raise stores v in a unless a already holds more.
func raise(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
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

// WorstWindow returns the window with the lowest completeness bound, the
// lowest index among equals, and the bound; ok is false when no event was
// late. A window's bound is the fraction of its events that arrived
// before it should have sealed. Because late events still merge into the
// window's content, it is conservative — the rendered window always holds
// at least this fraction of itself.
func (tr *WindowTracker) WorstWindow() (idx int64, bound float64, ok bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	bound = 1
	for i, c := range tr.counts {
		if c[1] == 0 {
			continue
		}
		if b := float64(c[0]) / float64(c[0]+c[1]); b < bound || ok && b == bound && i < idx {
			idx, bound, ok = i, b, true
		}
	}
	return idx, bound, ok
}

// WindowsObserved returns how many distinct windows the tracker has
// counted events for.
func (tr *WindowTracker) WindowsObserved() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.counts)
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
	open := len(tr.counts)
	tr.mu.Unlock()
	tr.tm.OnPublish(tr.lagNs.Load(), tr.maxLagNs.Load(), dEv, dLt, open)
}

// AttachWindowTracker wires a tracker into the pipeline's fold paths: a
// tap on the locked pack folds (board and fused paths) and, via Pipeline.
// NewReplica, on every replica's fold dispatcher. Call after EnableWindows
// and before EnableReplicas or any replica/lane creation.
func (p *Pipeline) AttachWindowTracker(tr *WindowTracker) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tally != nil {
		return p.alreadyEnabled("windowlag")
	}
	p.tally = tr.NewTally()
	next := tapped(*p.foldFn.Load(), p.tally.Observe)
	p.foldFn.Store(&next)
	return nil
}

// WindowTracker returns the pipeline's attached tracker (nil if none).
func (p *Pipeline) WindowTracker() *WindowTracker {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tally == nil {
		return nil
	}
	return p.tally.tr
}
