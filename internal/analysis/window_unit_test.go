package analysis

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestWindowedModuleEdges pins the windowed module's small contracts:
// negative-timestamp clamping, series extraction over gappy index ranges,
// and merge geometry checking.
func TestWindowedModuleEdges(t *testing.T) {
	m := NewWindowedModule(1000, 1000, PartialOptions{AppSize: 2}, nil)
	if m.Window() != 1000 || m.Slide() != 1000 {
		t.Fatalf("geometry = %d/%d", m.Window(), m.Slide())
	}

	// A negative event timestamp folds into window 0.
	ev := sendEvent(0, 1, 64, -100, -50)
	m.Add(&ev)
	ev2 := sendEvent(1, 0, 64, 2500, 2600)
	m.Add(&ev2)
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if wp := m.wins[0]; wp == nil || wp.Profiler.Events() != 1 {
		t.Fatalf("window 0 = %+v", wp)
	}

	// Series spans the populated range with zero-filled gaps.
	first, vals := m.AppendSeries(nil, func(wp *Partial) float64 { return float64(wp.Profiler.Events()) })
	if first != 0 || len(vals) != 3 {
		t.Fatalf("series first=%d len=%d, want 0/3", first, len(vals))
	}
	if vals[0] != 1 || vals[1] != 0 || vals[2] != 1 {
		t.Fatalf("series = %v", vals)
	}
	var empty WindowedModule
	if _, vals := empty.AppendSeries(nil, func(*Partial) float64 { return 1 }); vals != nil {
		t.Fatalf("empty series = %v", vals)
	}

	// Merge: nil is a no-op, incompatible geometry is a loud error.
	if err := m.Merge(nil); err != nil {
		t.Fatal(err)
	}
	other := NewWindowedModule(500, 500, PartialOptions{AppSize: 2}, nil)
	if err := m.Merge(other); err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("incompatible merge: err = %v", err)
	}

	// Compatible merge: overlapping windows accumulate, new ones copy in,
	// and the source is left intact (copy semantics).
	b := NewWindowedModule(1000, 1000, PartialOptions{AppSize: 2}, nil)
	ev3 := sendEvent(0, 1, 64, 150, 160)
	ev4 := sendEvent(1, 0, 64, 5200, 5300)
	b.Add(&ev3)
	b.Add(&ev4)
	if err := m.Merge(b); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 || b.Len() != 2 {
		t.Fatalf("post-merge lens = %d/%d, want 3/2", m.Len(), b.Len())
	}
	if got := m.wins[0].Profiler.Events(); got != 2 {
		t.Fatalf("merged window 0 events = %d, want 2", got)
	}
	if got := m.wins[5].Profiler.Events(); got != 1 {
		t.Fatalf("merged window 5 events = %d, want 1", got)
	}

	// mergeReset: move semantics — overlapping windows fold in, unseen
	// windows move wholesale, and the source drains.
	c := NewWindowedModule(1000, 1000, PartialOptions{AppSize: 2}, nil)
	ev5 := sendEvent(0, 1, 64, 150, 160)
	ev6 := sendEvent(0, 1, 64, 7100, 7200)
	c.Add(&ev5)
	c.Add(&ev6)
	m.mergeReset(c)
	if got := m.wins[0].Profiler.Events(); got != 3 {
		t.Fatalf("epoch-merged window 0 events = %d, want 3", got)
	}
	if m.wins[7] == nil || m.wins[7].Profiler.Events() != 1 {
		t.Fatal("moved window 7 missing after mergeReset")
	}
	if wp := c.wins[0]; wp != nil && wp.Profiler.Events() != 0 {
		t.Fatalf("source window 0 not drained: %d events", wp.Profiler.Events())
	}
}

// TestEnableWindowsValidation pins the pipeline-level registration: bad
// geometry and double registration fail loudly, and the accessor returns
// what was enabled.
func TestEnableWindowsValidation(t *testing.T) {
	bb := newBoard(t)
	p, err := NewPipeline(bb, "app", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableWindows(0, 0); err == nil {
		t.Fatal("zero window width accepted")
	}
	if _, err := p.EnableWindows(1000, 2000); err == nil {
		t.Fatal("slide > window accepted")
	}
	// 65 windows cover every instant: one past trace.MaxWindowOverlap, at
	// Enable and at the partial decoder.
	if _, err := p.EnableWindows(65, 1); err == nil {
		t.Fatal("an overlap of 65 windows accepted")
	}
	for width, ok := range map[int64]bool{64: true, 65: false} {
		enc := NewPartial(0, PartialOptions{AppSize: 2, WindowNs: width, WindowSlideNs: 1}).AppendCanonical(nil)
		if _, err := DecodePartial(enc); (err == nil) != ok {
			t.Fatalf("decoding a partial of window %d / slide 1: err %v", width, err)
		}
	}
	if p.state.Windows != nil {
		t.Fatal("series set before a successful enable")
	}
	m, err := p.EnableWindows(1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Slide() != 1000 {
		t.Fatalf("tumbling slide = %d, want window width", m.Slide())
	}
	if p.state.Windows != m {
		t.Fatal("the state does not carry the enabled module")
	}
	// The KS name is taken now; enabling again must fail, not shadow.
	if _, err := p.EnableWindows(1000, 0); err == nil {
		t.Fatal("double EnableWindows accepted")
	}
}

// TestWindowTrackerEdges pins the tracker's clamps and accessors: grace
// below zero, negative event timestamps, untouched-window completeness,
// distinct-window counting with late-only windows, and publication to
// the telemetry instruments.
func TestWindowTrackerEdges(t *testing.T) {
	reg := telemetry.NewRegistry()
	tm := telemetry.NewWindowMetrics(reg)
	tr := NewWindowTracker(1000, 0, -50, tm)

	tr.SetNow(100)
	if tr.now.Load() != 100 {
		t.Fatalf("Now = %d", tr.now.Load())
	}
	tr.SetNow(50) // monotonic: ignored
	if tr.now.Load() != 100 {
		t.Fatalf("Now after stale SetNow = %d", tr.now.Load())
	}

	// Negative timestamps clamp to zero (window 0, lag vs clock 100).
	ev := trace.Event{Kind: trace.KindSend, Rank: 0, Peer: 1, TStart: -20, TEnd: -10}
	observe(tr, &ev)
	if tr.LagNs() != 100 || tr.MaxLagNs() != 100 {
		t.Fatalf("lag = %d/%d, want 100/100", tr.LagNs(), tr.MaxLagNs())
	}
	if n := trackerCounts(tr)[0]; n != [2]int64{1, 0} {
		t.Fatalf("window 0 counts = %d/%d", n[0], n[1])
	}

	// A late-only window: clock far past window 3's end (grace clamped
	// to zero by the constructor).
	tr.SetNow(100_000)
	ev2 := trace.Event{Kind: trace.KindSend, Rank: 1, Peer: 0, TStart: 3500, TEnd: 3600}
	observe(tr, &ev2)
	if tr.LateEvents() != 1 || tr.Events() != 2 {
		t.Fatalf("events = %d late = %d", tr.Events(), tr.LateEvents())
	}
	if got := tr.WindowsObserved(); got != 2 {
		t.Fatalf("WindowsObserved = %d, want 2", got)
	}
	if idx, c, ok := tr.WorstWindow(); idx != 3 || c != 0 || !ok {
		t.Fatalf("worst window %d at %v (%v), want the late-only window 3 at 0", idx, c, ok)
	}

	tr.Publish()
	if got := reg.Counter("window.events").Value(); got != 2 {
		t.Fatalf("published window.events = %d, want 2", got)
	}
	if got := reg.Counter("window.late_events").Value(); got != 1 {
		t.Fatalf("published window.late_events = %d, want 1", got)
	}
	// Counters publish as deltas: an immediate re-publish adds nothing.
	tr.Publish()
	if got := reg.Counter("window.events").Value(); got != 2 {
		t.Fatalf("re-published window.events = %d, want 2", got)
	}

	// An over-rate schedule: 100 events arrive 500 ns apart at an analyzer
	// that spends 1000 ns on each, so every event adds 500 ns of backlog
	// and the last one folds 99*500 ns after it arrived.
	over := NewWindowTracker(1_000_000, 0, 0, nil)
	var arrival, now int64
	for i := 0; i < 100; i++ {
		arrival += 500
		now = max(now, arrival) // no event is served before it arrives
		over.SetNow(now)
		observe(over, &trace.Event{Kind: trace.KindSend, Rank: 0, Peer: 1, TStart: arrival, TEnd: arrival + 1})
		now += 1000
	}
	if over.LagNs() != 49_500 || over.MaxLagNs() != 49_500 {
		t.Fatalf("over-rate lag = %d (max %d), want 49500", over.LagNs(), over.MaxLagNs())
	}
}

// TestAttachWindowTrackerValidation pins the pipeline registration path
// for the tracker, including the duplicate-registration error.
func TestAttachWindowTrackerValidation(t *testing.T) {
	bb := newBoard(t)
	p, err := NewPipeline(bb, "app", 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.WindowTracker() != nil {
		t.Fatal("tracker set before attach")
	}
	tr := NewWindowTracker(1000, 0, 0, nil)
	if err := p.AttachWindowTracker(tr); err != nil {
		t.Fatal(err)
	}
	if p.WindowTracker() != tr {
		t.Fatal("WindowTracker does not return the attached tracker")
	}
	if err := p.AttachWindowTracker(tr); err == nil {
		t.Fatal("double AttachWindowTracker accepted")
	}
	// Publish without a telemetry bundle is free and safe.
	tr.Publish()
}

// TestWindowCacheDroppedOnEpochMerge: the tumbling fold remembers the
// window its last event fell into. An epoch merge moves windows out of
// the replica wholesale; the replica's next event for the same index must
// open a fresh window of its own, not write through the remembered
// pointer into a partial the canonical side now owns (and locks).
func TestWindowCacheDroppedOnEpochMerge(t *testing.T) {
	opts := PartialOptions{AppSize: 2, WindowNs: 1000}
	rep, canon, serial := NewReplica(1, opts), NewPartial(1, opts), NewPartial(1, opts)
	fold := func(at int64) {
		ev := sendEvent(0, 1, 64, at, at+5)
		rep.Fold(&ev)
		serial.AddEvent(&ev)
	}
	for epoch := int64(0); epoch < 3; epoch++ {
		// Every epoch starts in the window the previous one ended in.
		fold(100 + epoch)
		own := rep.Partial().Windows.wins[0]
		if own == nil || own == canon.Windows.wins[0] || own.Profiler.Events() != 1 {
			t.Fatalf("epoch %d: the first event after a merge did not open the replica's own window 0", epoch)
		}
		fold(1100 + epoch)
		fold(200 + epoch)
		if err := canon.MergeReset(rep.Partial()); err != nil {
			t.Fatal(err)
		}
		if got, want := canon.Windows.wins[0].Profiler.Events(), 2*(epoch+1); got != want {
			t.Fatalf("epoch %d: canonical window 0 holds %d events, want %d", epoch, got, want)
		}
	}
	if !bytes.Equal(canon.AppendCanonical(nil), serial.AppendCanonical(nil)) {
		t.Error("replica epochs diverged from the serial fold")
	}
}
