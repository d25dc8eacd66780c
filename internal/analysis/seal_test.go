package analysis

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// The seal path's scaling guards: what a Flush → MergeEncoded cycle costs
// must follow what the epoch wrote — not the session's age, not the app's
// ranks², not the number of channels a new window touches.

// liveOpts is the module selection of cmd/bench's live-query workload:
// everything on, 100 µs temporal buckets, 500 µs tumbling windows.
func liveOpts(ranks int) PartialOptions {
	return PartialOptions{
		AppSize: ranks, WaitState: true, TemporalWindowNs: 100_000,
		Callsites: true, Sizes: true, WindowNs: 500_000,
	}
}

// liveEvent is event i of a rank's stream in the shape of that workload: a
// seven-call cycle of Isend/Irecv/Wait with r^1 and r^2 under four tags and
// a collective, 1.5 µs apart — eight send and eight receive channels a rank.
func liveEvent(rank int32, i int) trace.Event {
	slot, round := i%7, i/7
	ev := trace.Event{Rank: rank, Peer: -1, Tag: -1, Comm: 1, Ctx: uint32(10 + slot)}
	peer, tag := rank^int32(1+slot/3), int32(100+round%4)
	switch slot {
	case 0, 3:
		ev.Kind, ev.Peer, ev.Tag, ev.Size = trace.KindIsend, peer, tag, 8192<<(i%3)
	case 1, 4:
		ev.Kind, ev.Peer, ev.Tag, ev.Size = trace.KindIrecv, peer, tag, 8192<<(i%3)
	case 2, 5:
		ev.Kind, ev.Peer, ev.Tag = trace.KindWait, peer, tag
	default:
		ev.Kind, ev.Size = trace.KindAllreduce, 2048
	}
	ev.TStart = int64(i)*1500 + int64((i*7+int(rank)*13)%300)
	ev.TEnd = ev.TStart + 600 + int64((i*11+int(rank))%500)
	return ev
}

// livePacks returns the events of packs [from, to) of that workload's
// arrival order: 63-event packs, round-robin over the ranks.
func livePacks(ranks, from, to int) []trace.Event {
	const perPack = 63
	evs := make([]trace.Event, 0, (to-from)*perPack)
	for p := from; p < to; p++ {
		rank, k := int32(p%ranks), p/ranks
		for i := k * perPack; i < (k+1)*perPack; i++ {
			evs = append(evs, liveEvent(rank, i))
		}
	}
	return evs
}

func foldAll(pp *Partial, evs []trace.Event) {
	for i := range evs {
		pp.AddEvent(&evs[i])
	}
}

// BenchmarkSeal times the daemon's seal — Flush of the delta, MergeEncoded
// into the cumulative state — for one poll interval of the live workload
// (80 packs, 5 040 events) behind its 2 048-pack preload. The delta holds
// the same events whatever the app size; so must the cost.
func BenchmarkSeal(b *testing.B) {
	const preload, perPoll, polls = 2048, 80, 20
	for _, ranks := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("%dranks", ranks), func(b *testing.B) {
			delta, cum := NewPartial(1, liveOpts(ranks)), NewPartial(1, liveOpts(ranks))
			var buf []byte
			seal := func() {
				buf = delta.Flush(buf[:0], false)
				if err := cum.MergeEncoded(buf); err != nil {
					b.Fatal(err)
				}
			}
			foldAll(delta, livePacks(ranks, 0, preload))
			seal()
			intervals := make([][]trace.Event, polls)
			for k := range intervals {
				intervals[k] = livePacks(ranks, preload+k*perPoll, preload+(k+1)*perPoll)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				foldAll(delta, intervals[n%polls])
				b.StartTimer()
				seal()
			}
		})
	}
}

// allocatedBy reports the bytes and the objects fn allocates.
func allocatedBy(fn func()) (bytes, objects uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
}

// TestSealCostIndependentOfHistory: a one-event epoch costs the same seal
// whether the session has seen ten windows or a thousand. Visiting every
// window the series ever had shows as a cost that grows with session age.
func TestSealCostIndependentOfHistory(t *testing.T) {
	cycleBytes := func(history int) uint64 {
		opts := liveOpts(8)
		delta := NewPartial(1, opts)
		for w := 0; w < history; w++ {
			ev := liveEvent(int32(w%8), 0)
			ev.TStart, ev.TEnd = int64(w)*opts.WindowNs, int64(w)*opts.WindowNs+100
			delta.AddEvent(&ev)
		}
		var buf []byte
		ev := liveEvent(3, 6) // a collective: no wait-state queue grows with the cycles
		ev.TStart = int64(history) * opts.WindowNs
		cycle := func() {
			ev.TStart += 10
			ev.TEnd = ev.TStart + 100
			delta.AddEvent(&ev)
			buf = delta.Flush(buf[:0], false)
		}
		cycle()
		cycle()
		const cycles = 20
		bytes, _ := allocatedBy(func() {
			for i := 0; i < cycles; i++ {
				cycle()
			}
		})
		return bytes / cycles
	}
	young, old := cycleBytes(10), cycleBytes(1000)
	t.Logf("one-event fold → Flush cycle: %d B with 10 windows of history, %d B with 1000", young, old)
	if old > young+young/2+256 {
		t.Errorf("a one-event seal allocates %d B behind 1000 windows vs %d B behind 10: it scales with session age", old, young)
	}
}

// TestNewWindowAllocsPerChunk: the first events of a fresh window open
// thousands of wait-state queues. Their records and their storage are cut
// from chunks, so the window allocates per chunk — far fewer objects than
// it has channels, where a slice per queue per doubling is several each.
func TestNewWindowAllocsPerChunk(t *testing.T) {
	const ranks = 256
	opts := liveOpts(ranks)
	pp := NewPartial(1, opts)
	// Window 0, so the outer modules are warm; then the same calls one
	// window later.
	first := livePacks(ranks, 0, 2*ranks)
	foldAll(pp, first)
	for i := range first {
		first[i].TStart += opts.WindowNs
		first[i].TEnd += opts.WindowNs
	}
	_, objects := allocatedBy(func() { foldAll(pp, first) })
	channels := len(pp.Windows.WindowPartial(1).Waits.chans)
	t.Logf("a fresh window of %d channels allocates %d objects", channels, objects)
	if channels < 2000 {
		t.Fatalf("the workload opened %d channels in the window, want ≥ 2000", channels)
	}
	if objects > uint64(channels)/4 {
		t.Errorf("a fresh window of %d channels allocates %d objects: per channel, not per chunk", channels, objects)
	}
}
