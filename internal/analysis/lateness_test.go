package analysis

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// observe counts one event into tr as a pack of its own.
func observe(tr *WindowTracker, ev *trace.Event) {
	ta := tr.NewTally()
	ta.Observe(ev)
	ta.Commit()
}

// trackerCounts reads every counted window's on-time and late events.
func trackerCounts(tr *WindowTracker) map[int64][2]int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return maps.Clone(tr.counts)
}

// refTracker is the lateness definition per event, the reference a tally
// must reproduce: each event judged against the clock and watermark as
// they stand when it is observed.
type refTracker struct {
	window, slide, grace                      int64
	now, watermark, lag, maxLag, events, late int64
	counts                                    map[int64][2]int64
}

func (m *refTracker) observe(ev *trace.Event) {
	t := max(ev.TStart, 0)
	m.watermark = max(m.watermark, t)
	m.lag = max(m.now-t, 0)
	m.maxLag = max(m.maxLag, m.lag)
	m.events++
	idx := t / m.slide
	c := m.counts[idx]
	if max(m.now, m.watermark)-(idx*m.slide+m.window) > m.grace {
		c[1]++
		m.late++
	} else {
		c[0]++
	}
	m.counts[idx] = c
}

// TestTallyMatchesPerEventModel commits tallies at random pack cuts of 1 000
// generated streams — starts before zero and out of order, tumbling and
// sliding windows, grace zero and not, the clock moved (and moved back,
// which it ignores) between packs — and holds the tracker to the per-event
// reference after every pack: events, late events, lag and its high-water,
// and at the end every window's on-time and late counts and the worst
// window.
func TestTallyMatchesPerEventModel(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window := int64(100 + rng.Intn(3000))
		slide := window
		if seed%2 == 1 {
			slide = window/5 + rng.Int63n(window-window/5)
		}
		grace := int64(0)
		if rng.Intn(3) > 0 {
			grace = rng.Int63n(window)
		}
		tr := NewWindowTracker(window, slide, grace, nil)
		ta := tr.NewTally()
		ref := refTracker{window: window, slide: slide, grace: grace, counts: map[int64][2]int64{}}
		at := int64(rng.Intn(1000)) - 600
		for packs := 1 + rng.Intn(30); packs > 0; packs-- {
			if rng.Intn(3) > 0 {
				now := tr.now.Load() + int64(rng.Intn(2000)) - 500
				tr.SetNow(now)
				ref.now = max(ref.now, now)
			}
			for n := 1 + rng.Intn(40); n > 0; n-- {
				at += int64(rng.Intn(200)) - 40 // mostly forward, sometimes back
				if rng.Intn(20) == 0 {
					at -= int64(rng.Intn(4000)) // a straggler
				}
				ev := trace.Event{Kind: trace.KindSend, TStart: at, TEnd: at + 10}
				ta.Observe(&ev)
				ref.observe(&ev)
			}
			ta.Commit()
			got := [4]int64{tr.Events(), tr.LateEvents(), tr.LagNs(), tr.MaxLagNs()}
			if want := [4]int64{ref.events, ref.late, ref.lag, ref.maxLag}; got != want {
				t.Fatalf("seed %d: events, late, lag, max lag = %v, per-event reference %v", seed, got, want)
			}
		}
		if got := trackerCounts(tr); !reflect.DeepEqual(got, ref.counts) {
			t.Fatalf("seed %d: window counts %v, per-event reference %v", seed, got, ref.counts)
		}
		if got := tr.WindowsObserved(); got != len(ref.counts) {
			t.Fatalf("seed %d: %d windows observed, reference %d", seed, got, len(ref.counts))
		}
		wantIdx, wantC, wantOK := int64(0), 1.0, false
		for idx, c := range ref.counts {
			if c[1] == 0 {
				continue
			}
			f := float64(c[0]) / float64(c[0]+c[1])
			if f < wantC || f == wantC && idx < wantIdx {
				wantIdx, wantC, wantOK = idx, f, true
			}
		}
		if idx, c, ok := tr.WorstWindow(); idx != wantIdx || c != wantC || ok != wantOK {
			t.Fatalf("seed %d: worst window %d at %v (%v), reference %d at %v (%v)", seed, idx, c, ok, wantIdx, wantC, wantOK)
		}
	}
}

// BenchmarkWindowTally is the tracker's cost per folded event: a tally
// observing 256-event packs, committed once each, against the shared
// tracker.
func BenchmarkWindowTally(b *testing.B) {
	tr := NewWindowTracker(1_000_000, 0, 0, nil)
	tr.SetNow(1 << 30)
	ta := tr.NewTally()
	evs := fusedWorkload(0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range evs {
			ta.Observe(&evs[j])
		}
		ta.Commit()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}
