package analysis

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// windowTestOpts is the inner module selection the window property tests
// run: wait-state on (the hard case — pending queues straddle window
// boundaries) plus call-sites.
func windowTestOpts(appSize int) PartialOptions {
	return PartialOptions{AppSize: appSize, WaitState: true, Callsites: true}
}

// TestWindowConcatReconstructsWholeRun is the tumbling-window
// reconstruction law: folding a run into W-sized windows and then
// merging every sealed window back together must reproduce, byte for
// byte, the partial that folded the whole run directly. (Tumbling only:
// a sliding series folds each event into window/slide windows, so its
// concatenation multiply-counts by construction.) This is the property
// that makes per-window series trustworthy — a window holds exactly its
// slice of the run, nothing leaks across boundaries, and the lazy
// wait-state queues pair identically once reassembled.
func TestWindowConcatReconstructsWholeRun(t *testing.T) {
	const appSize = 6
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := windowTestOpts(appSize)
		perRank := genRankEvents(rng, appSize, 400)
		windowNs := int64(200 + rng.Intn(5000))

		m := NewWindowedModule(windowNs, windowNs, opts)
		whole := NewPartial(0, opts)
		ranks := make([]int, appSize)
		for i := range ranks {
			ranks[i] = i
		}
		idx := make([]int, appSize)
		for {
			progressed := false
			for i, r := range ranks {
				if idx[i] < len(perRank[r]) {
					ev := perRank[r][idx[i]]
					m.Add(&ev)
					whole.AddEvent(&ev)
					idx[i]++
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}

		acc := NewPartial(0, opts)
		for _, i := range m.Indices() {
			if err := acc.Merge(m.wins[i]); err != nil {
				t.Logf("seed %d: window %d merge: %v", seed, i, err)
				return false
			}
		}
		got := acc.AppendCanonical(nil)
		want := whole.AppendCanonical(nil)
		if !bytes.Equal(got, want) {
			t.Logf("seed %d: %d windows of %dns concatenate to %d bytes != whole run %d bytes",
				seed, m.Len(), windowNs, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
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
//   - a window that saw no late arrivals reports completeness 1.
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
		m := NewWindowedModule(windowNs, windowNs, opts)
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
			tr.OnEvent(ev)

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
		for _, idx := range tr.WindowIndices() {
			on, late := tr.WindowCounts(idx)
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
			c := tr.Completeness(idx)
			if c < 0 || c > 1 {
				t.Logf("seed %d: window %d completeness %v out of range", seed, idx, c)
				return false
			}
			if late == 0 && c != 1 {
				t.Logf("seed %d: window %d has no late events but completeness %v", seed, idx, c)
				return false
			}
			if late > 0 && c >= 1 && on > 0 {
				t.Logf("seed %d: window %d has %d late events but completeness %v", seed, idx, late, c)
				return false
			}
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
	m := NewWindowedModule(4000, 1000, opts)
	ev := trace.Event{Kind: trace.KindSend, Rank: 0, Peer: 1, TStart: 10_500, TEnd: 10_600}
	m.Add(&ev)
	want := []int64{7, 8, 9, 10}
	got := m.Indices()
	if len(got) != len(want) {
		t.Fatalf("indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("indices = %v, want %v", got, want)
		}
	}
	// Near the origin the cover clips at window zero.
	m2 := NewWindowedModule(4000, 1000, opts)
	ev2 := trace.Event{Kind: trace.KindSend, Rank: 0, Peer: 1, TStart: 1500, TEnd: 1600}
	m2.Add(&ev2)
	if got := m2.Indices(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("origin indices = %v, want [0 1]", got)
	}
}
