package analysis

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// windowTestOpts is the module selection the window property tests run:
// wait-state on (the hard case — channels straddle window boundaries) plus
// call-sites.
func windowTestOpts(appSize int) PartialOptions {
	return PartialOptions{AppSize: appSize, WaitState: true, Callsites: true}
}

// TestWindowConcatReconstructsWholeRun is the tumbling-window
// reconstruction law: merging every window of a run back together
// reproduces, byte for byte, the profiler section of the partial that
// folded the whole run directly, and Σ window wait sums — pairs, and
// late-sender ns and hits per rank — equal the whole run's settled sums.
// (Tumbling only: a sliding series folds each event into window/slide
// windows, so its concatenation multiply-counts by construction.) A window
// holds exactly its slice of the run, nothing leaks across boundaries, and
// a channel that straddles one pairs as it does in the whole run.
func TestWindowConcatReconstructsWholeRun(t *testing.T) {
	const appSize = 6
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := windowTestOpts(appSize)
		perRank := genRankEvents(rng, appSize, 400)
		opts.WindowNs = int64(200 + rng.Intn(5000))
		pp := NewPartial(0, opts)
		roundRobin(perRank, pp.AddEvent)

		acc := &ProfilerModule{}
		sums := NewWaitStateModule(appSize)
		pp.Windows.AppendSeries(nil, func(wp *Partial) float64 {
			acc.Merge(wp.Profiler)
			sums.Merge(wp.Waits)
			return 0
		})
		whole := NewPartial(0, windowTestOpts(appSize))
		whole.Profiler.Merge(pp.Profiler)
		whole.Waits.Merge(pp.Waits)
		cat := NewPartial(0, windowTestOpts(appSize))
		cat.Profiler.Merge(acc)
		cat.Waits.Merge(sums)
		if got, want := cat.AppendCanonical(nil), whole.AppendCanonical(nil); !bytes.Equal(got, want) {
			t.Logf("seed %d: %d windows of %dns concatenate to %d bytes != whole run %d bytes",
				seed, pp.Windows.Len(), opts.WindowNs, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowSumsMatchWholeRun is the window-boundary regression test, on a
// stream of the live-query workload's shape (256 ranks, 3 648 packs of 63
// events, 500 µs tumbling windows): Σ per-window pairs and late-sender
// wait equal the whole run's. Pairing each window's slice of the channel
// queues on its own instead loses the pairs that straddle a boundary and
// mismatches the rest into late-sender wait the run does not have.
func TestWindowSumsMatchWholeRun(t *testing.T) {
	const ranks = 256
	pp := NewPartial(1, liveOpts(ranks))
	foldAll(pp, livePacks(ranks, 0, 3648))
	var pairs, lateNs int64
	pp.Windows.AppendSeries(nil, func(wp *Partial) float64 {
		pairs += wp.Waits.Pairs()
		lateNs += wp.Waits.TotalLateNs()
		return 0
	})
	wholePairs, wholeLate := pp.Waits.Pairs(), pp.Waits.TotalLateNs()
	t.Logf("whole run: %d pairs, %d ns late; Σ %d windows: %d pairs, %d ns late",
		wholePairs, wholeLate, pp.Windows.Len(), pairs, lateNs)
	if wholePairs == 0 || pp.Windows.Len() < 2 {
		t.Fatalf("the stream paired %d messages over %d windows: nothing straddles", wholePairs, pp.Windows.Len())
	}
	if pairs != wholePairs || lateNs != wholeLate {
		t.Errorf("Σ windows = %d pairs, %d ns late; the whole run = %d pairs, %d ns late",
			pairs, lateNs, wholePairs, wholeLate)
	}
}

// TestWindowCompletenessConservative pins the lateness model under
// adversarial reordering: events are shuffled arbitrarily (breaking even
// per-rank order, which the tracker must tolerate — it only reads
// timestamps) and folded with a jittery analyzer clock. Whatever the
// arrival order:
//
//   - every event lands in exactly one tumbling window's count, and the
//     window's canonical content holds ALL of its events — late ones
//     included — so the completeness bound on/(on+late) can only
//     understate what the window holds, never overstate it;
//   - the late marking itself must match an independent replay of the
//     definition (effective clock past window end + grace);
//   - the worst window is the replay's lowest bound, and a run without a
//     late arrival has none.
func TestWindowCompletenessConservative(t *testing.T) {
	const appSize = 5
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := windowTestOpts(appSize)
		perRank := genRankEvents(rng, appSize, 300)
		var evs []trace.Event
		for _, seq := range perRank {
			evs = append(evs, seq...)
		}
		rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })

		windowNs := int64(300 + rng.Intn(3000))
		graceNs := int64(rng.Intn(500))
		m := NewWindowedModule(windowNs, windowNs, opts, nil)
		tr := NewWindowTracker(windowNs, 0, graceNs, nil)

		// Independent replay of the lateness definition.
		wantLate := map[int64]int64{}
		wantOn := map[int64]int64{}
		var now, watermark int64
		for i := range evs {
			ev := &evs[i]
			// A jittery but monotonic analyzer clock: sometimes ahead of
			// the stream, sometimes behind.
			if rng.Intn(3) == 0 {
				now += int64(rng.Intn(2000))
			}
			tr.SetNow(now)
			m.Add(ev)
			observe(tr, ev)

			tv := ev.TStart
			if tv < 0 {
				tv = 0
			}
			if tv > watermark {
				watermark = tv
			}
			idx := tv / windowNs
			eff := now
			if watermark > eff {
				eff = watermark
			}
			if eff-(idx*windowNs+windowNs) > graceNs {
				wantLate[idx]++
			} else {
				wantOn[idx]++
			}
		}

		var counted int64
		worst, worstIdx := 1.0, int64(0)
		for idx, n := range trackerCounts(tr) {
			on, late := n[0], n[1]
			counted += on + late
			if on != wantOn[idx] || late != wantLate[idx] {
				t.Logf("seed %d: window %d counts (%d on, %d late), replay wants (%d, %d)",
					seed, idx, on, late, wantOn[idx], wantLate[idx])
				return false
			}
			wp := m.wins[idx]
			if wp == nil || wp.Profiler.Events() != on+late {
				got := int64(-1)
				if wp != nil {
					got = wp.Profiler.Events()
				}
				t.Logf("seed %d: window %d holds %d events, tracker counted %d: late events leaked out of content",
					seed, idx, got, on+late)
				return false
			}
			if c := float64(on) / float64(on+late); c < worst || c == worst && idx < worstIdx {
				worst, worstIdx = c, idx
			}
		}
		if idx, c, ok := tr.WorstWindow(); ok != (worst < 1) || ok && (idx != worstIdx || c != worst) {
			t.Logf("seed %d: worst window %d at %v (%v), replay wants %d at %v", seed, idx, c, ok, worstIdx, worst)
			return false
		}
		if counted != int64(len(evs)) || tr.Events() != int64(len(evs)) {
			t.Logf("seed %d: %d events counted across windows, %d observed, %d folded",
				seed, counted, tr.Events(), len(evs))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSlidingWindowCoverage pins the sliding fold: an event is folded
// into every window covering its start time — window/slide of them away
// from the series origin — which is exactly the documented cost factor.
func TestSlidingWindowCoverage(t *testing.T) {
	opts := PartialOptions{AppSize: 2}
	m := NewWindowedModule(4000, 1000, opts, nil)
	ev := trace.Event{Kind: trace.KindSend, Rank: 0, Peer: 1, TStart: 10_500, TEnd: 10_600}
	m.Add(&ev)
	want := []int64{7, 8, 9, 10}
	got := windowIndices(m)
	if len(got) != len(want) {
		t.Fatalf("indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("indices = %v, want %v", got, want)
		}
	}
	// Near the origin the cover clips at window zero.
	m2 := NewWindowedModule(4000, 1000, opts, nil)
	ev2 := trace.Event{Kind: trace.KindSend, Rank: 0, Peer: 1, TStart: 1500, TEnd: 1600}
	m2.Add(&ev2)
	if got := windowIndices(m2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("origin indices = %v, want [0 1]", got)
	}
}

// windowIndices returns the populated window indices in ascending order.
func windowIndices(m *WindowedModule) []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Sorted(maps.Keys(m.wins))
}
