package analysis

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/blackboard"
	"repro/internal/trace"
)

// The naive window reference: maps and sort over the run's events and
// nothing of the engine's — no packs, no partials, no shared helper. Per
// window it is what a reader of the paper writes down: the events whose
// start the window covers, their hits, bytes and time per kind, and the
// late-sender pairs whose receive it covers, from brute-force whole-run
// FIFO pairing per (src, dst, tag, comm) channel.

type refKey struct {
	src, dst, tag int32
	comm          uint32
}

type refRecv struct {
	rank       int32
	start, end int64
}

type refWindow struct {
	events   int64
	kinds    map[trace.Kind][3]int64 // hits, bytes, time
	pairs    int64
	lateNs   map[int32]int64
	lateHits map[int32]int64
}

func newRefWindow() *refWindow {
	return &refWindow{kinds: map[trace.Kind][3]int64{}, lateNs: map[int32]int64{}, lateHits: map[int32]int64{}}
}

// refRun is the reference's answer: the whole run's wait sums (in a
// refWindow's wait fields) and the windows by index.
type refRun struct {
	whole *refWindow
	wins  map[int64]*refWindow
}

// refCovering lists the windows [i*slide, i*slide+width) holding t, a
// negative t counted at zero, by trying every window from the first.
func refCovering(t, width, slide int64) []int64 {
	if t < 0 {
		t = 0
	}
	var out []int64
	for i := int64(0); i*slide <= t; i++ {
		if t < i*slide+width {
			out = append(out, i)
		}
	}
	return out
}

// refAnalyze runs the reference over a run's events, in any order.
func refAnalyze(evs []trace.Event, appSize int, width, slide int64) refRun {
	run := refRun{whole: newRefWindow(), wins: map[int64]*refWindow{}}
	win := func(i int64) *refWindow {
		if run.wins[i] == nil {
			run.wins[i] = newRefWindow()
		}
		return run.wins[i]
	}
	for _, ev := range evs {
		for _, i := range refCovering(ev.TStart, width, slide) {
			w := win(i)
			w.events++
			s := w.kinds[ev.Kind]
			w.kinds[ev.Kind] = [3]int64{s[0] + 1, s[1] + ev.Size, s[2] + ev.TEnd - ev.TStart}
		}
	}
	refPairs(evs, appSize, func(r refRecv, wait int64) {
		credited := []*refWindow{run.whole}
		for _, i := range refCovering(r.start, width, slide) {
			credited = append(credited, win(i))
		}
		for _, w := range credited {
			w.pairs++
			if wait > 0 {
				w.lateNs[r.rank] += wait
				w.lateHits[r.rank]++
			}
		}
	})
	return run
}

// refPairs pairs a run's events, in any order, the brute-force way: per
// (src, dst, tag, comm) channel, the sends and the receives sorted by time
// and matched by position. It calls pair with each pair's receive and its
// late-sender wait, zero unless the receiving rank is in the app.
func refPairs(evs []trace.Event, appSize int, pair func(r refRecv, wait int64)) {
	sends := map[refKey][]int64{}
	recvs := map[refKey][]refRecv{}
	for _, ev := range evs {
		if ev.Peer < 0 {
			continue // a wildcard completion names no channel
		}
		switch {
		case ev.Kind == trace.KindSend || ev.Kind == trace.KindIsend:
			k := refKey{ev.Rank, ev.Peer, ev.Tag, ev.Comm}
			sends[k] = append(sends[k], ev.TStart)
		case ev.Kind == trace.KindRecv || ev.Kind == trace.KindWait && ev.Tag >= 0:
			k := refKey{ev.Peer, ev.Rank, ev.Tag, ev.Comm}
			recvs[k] = append(recvs[k], refRecv{ev.Rank, ev.TStart, ev.TEnd})
		}
	}
	for k, ss := range sends {
		rs := recvs[k]
		sort.Slice(ss, func(a, b int) bool { return ss[a] < ss[b] })
		sort.SliceStable(rs, func(a, b int) bool {
			if rs[a].start != rs[b].start {
				return rs[a].start < rs[b].start
			}
			return rs[a].end < rs[b].end
		})
		for j := 0; j < len(ss) && j < len(rs); j++ {
			// The receive waited from its start until the send started, at
			// most for its own duration; only ranks of the app are charged.
			r, wait := rs[j], int64(0)
			if ss[j] > r.start && r.rank >= 0 && int(r.rank) < appSize {
				wait = min(ss[j], r.end) - r.start
			}
			pair(r, wait)
		}
	}
}

// engineRun reads the same values out of a partial the way the report
// does: the whole-run wait accessors, and each window through Series.
func engineRun(pp *Partial) refRun {
	read := func(w *refWindow, ws *WaitStateModule) {
		w.pairs = ws.Pairs()
		hits := ws.LateSenderHits()
		for r, ns := range ws.AppendLateSenderMap(nil) {
			if hits[r] != 0 || ns != 0 {
				w.lateNs[int32(r)], w.lateHits[int32(r)] = int64(ns), hits[r]
			}
		}
	}
	run := refRun{whole: newRefWindow(), wins: map[int64]*refWindow{}}
	read(run.whole, pp.Waits)
	var got []*refWindow
	first, refs := pp.Windows.AppendSeries(nil, func(wp *Partial) float64 {
		w := newRefWindow()
		w.events = wp.Profiler.Events()
		for _, ks := range wp.Profiler.AppendStats(nil) {
			w.kinds[ks.Kind] = [3]int64{ks.Hits, ks.Bytes, ks.TimeNs}
		}
		read(w, wp.Waits)
		got = append(got, w)
		return float64(len(got))
	})
	for i, ref := range refs {
		if ref != 0 {
			run.wins[first+int64(i)] = got[int(ref)-1]
		}
	}
	return run
}

// oracleStream generates one seeded run: per-rank time-ordered streams of
// point-to-point traffic between neighbours from three call sites (the
// site follows the call's place in its rank's stream, so the draws are
// those of a stream without sites), with the edges mixed in —
// unnamed kinds, peers outside the app, a rank outside the app, wildcard
// (Peer < 0) completions, Waits without a tag, zero-duration calls and
// starts before zero — over enough windows that channels straddle their
// boundaries.
func oracleStream(rng *rand.Rand, appSize int) [][]trace.Event {
	kinds := []trace.Kind{trace.KindSend, trace.KindIsend, trace.KindRecv, trace.KindIrecv,
		trace.KindWait, trace.KindWait, trace.KindRecv, trace.KindAllreduce, 22, 255}
	perRank := make([][]trace.Event, appSize+1) // the last rank is outside the app
	for r := range perRank {
		now, n := int64(rng.Intn(400))-200, 8+rng.Intn(24)
		for i := 0; i < n; i++ {
			now += int64(rng.Intn(300))
			ev := trace.Event{Kind: kinds[rng.Intn(len(kinds))], Rank: int32(r), Tag: int32(rng.Intn(2)),
				Comm: uint32(rng.Intn(2)), Size: int64(rng.Intn(4096)), TStart: now, Ctx: uint32(i % 3)}
			switch rng.Intn(12) {
			case 0:
				ev.Peer = -1
			case 1:
				ev.Peer = int32(appSize + rng.Intn(3)) // the last rank, or outside the stream
			default:
				ev.Peer = int32((r + 1 + rng.Intn(2)*(appSize-1)) % (appSize + 1)) // r±1
			}
			if rng.Intn(10) == 0 {
				ev.Tag = -1
			}
			if rng.Intn(5) > 0 {
				ev.TEnd = now + int64(rng.Intn(600))
			} else {
				ev.TEnd = now
			}
			now = ev.TEnd
			perRank[r] = append(perRank[r], ev)
		}
	}
	return perRank
}

// roundRobin visits every event once, one rank's next event at a time,
// keeping each rank's order (the order a writer's packs arrive in).
func roundRobin(perRank [][]trace.Event, fn func(*trace.Event)) {
	idx := make([]int, len(perRank))
	for more := true; more; {
		more = false
		for r := range perRank {
			if idx[r] < len(perRank[r]) {
				fn(&perRank[r][idx[r]])
				idx[r]++
				more = true
			}
		}
	}
}

// TestWindowOracle holds the window series to the naive reference on 1 000
// generated runs, tumbling and sliding, through every way events reach a
// windowed partial (ingestPaths; the board legs on 100 of the runs), each
// compared on the values its canonical bytes decode to.
func TestWindowOracle(t *testing.T) {
	const appSize = 5
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		perRank := oracleStream(rng, appSize)
		opts := PartialOptions{AppSize: appSize, WaitState: true, WindowNs: int64(600 + rng.Intn(2400))}
		if seed%2 == 1 { // sliding: each event in up to four windows
			opts.WindowSlideNs = opts.WindowNs/4 + rng.Int63n(opts.WindowNs-opts.WindowNs/4)
		}
		var evs []trace.Event
		for _, seq := range perRank {
			evs = append(evs, seq...)
		}
		for name, path := range ingestPaths(t, rng, opts, perRank, seed%oracleBoardEvery == 0) {
			if !oracleAgrees(t, fmt.Sprintf("seed %d %s", seed, name), path().AppendCanonical(nil), evs) {
				return
			}
		}
	}
}

// oracleBoardEvery spaces the board legs of the oracles: every tenth seed,
// 100 of the 1 000 streams, as their board workers are dear under -race.
const oracleBoardEvery = 10

// ingestPaths returns the ways the oracles feed a run's events to a
// partial of opts — AddEvent, replicas epoch-merged with MergeReset, the
// daemon's seal chain (a delta's Flush(false) merged into a cumulative
// state with MergeEncoded, then its Flush(true)), a whole-run Flush(true)
// decoded, v3 packs through two fused lanes and, with board set, v1 packs
// posted on the board, folded under the state's locks and into replicas —
// with rng picking replicas, seal points, pack cuts and epochs. The pack
// paths feed a window tracker too, which they hold to the reference.
func ingestPaths(t *testing.T, rng *rand.Rand, opts PartialOptions, perRank [][]trace.Event, board bool) map[string]func() *Partial {
	paths := map[string]func() *Partial{
		"AddEvent": func() *Partial {
			pp := NewPartial(1, opts)
			roundRobin(perRank, pp.AddEvent)
			return pp
		},
		"Replica.Fold+MergeReset": func() *Partial {
			canon := NewPartial(0, opts)
			reps := []*Replica{NewReplica(0, opts), NewReplica(0, opts)}
			roundRobin(perRank, func(ev *trace.Event) {
				r := reps[rng.Intn(len(reps))]
				r.Fold(ev)
				if rng.Intn(16) == 0 {
					if err := canon.MergeReset(r.Partial()); err != nil {
						t.Fatal(err)
					}
				}
			})
			for _, r := range reps {
				if err := canon.MergeReset(r.Partial()); err != nil {
					t.Fatal(err)
				}
			}
			return canon
		},
		"Flush(false)→MergeEncoded chain": func() *Partial {
			delta, cum := NewPartial(1, opts), NewPartial(1, opts)
			seal := func(final bool) {
				if err := cum.MergeEncoded(delta.Flush(nil, final)); err != nil {
					t.Fatal(err)
				}
			}
			roundRobin(perRank, func(ev *trace.Event) {
				delta.AddEvent(ev)
				if rng.Intn(24) == 0 {
					seal(false)
				}
			})
			seal(true)
			return cum
		},
		"Flush(true)": func() *Partial {
			pp := NewPartial(1, opts)
			roundRobin(perRank, pp.AddEvent)
			dec, err := DecodePartial(pp.Flush(nil, true))
			if err != nil {
				t.Fatal(err)
			}
			return dec
		},
		"fused lanes v3": func() *Partial {
			d, p, tr := oraclePipeline(t, opts)
			fi := NewParallelFusedIngest(d, 2, 1+rng.Intn(8))
			roundRobinPacks(oraclePacks(t, trace.PackV3, perRank, 1+rng.Intn(8)), func(src int, pk []byte) {
				if _, err := fi.Absorb(src, pk); err != nil {
					t.Fatal(err)
				}
			})
			fi.Sync()
			return trackerAgrees(t, "fused lanes", d, p, tr, perRank)
		},
	}
	if !board {
		return paths
	}
	for _, replicas := range []bool{false, true} {
		paths[fmt.Sprintf("board v1 (replicas %v)", replicas)] = func() *Partial {
			d, p, tr := oraclePipeline(t, opts)
			if replicas {
				if err := p.EnableReplicas(1 + rng.Intn(64)); err != nil {
					t.Fatal(err)
				}
			}
			roundRobinPacks(oraclePacks(t, trace.PackV1, perRank, 1+rng.Intn(8)), func(_ int, pk []byte) { d.PostRaw(pk) })
			d.bb.Drain()
			p.Settle()
			return trackerAgrees(t, "board", d, p, tr, perRank)
		}
	}
	return paths
}

// oraclePipeline builds a level carrying opts' modules, with a window
// tracker attached, on a board of two workers.
func oraclePipeline(t *testing.T, opts PartialOptions) (*Dispatcher, *Pipeline, *WindowTracker) {
	t.Helper()
	d, err := NewDispatcher(blackboard.New(blackboard.Config{Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.AddApp(1, "app", opts.AppSize)
	errs := []error{err}
	if opts.WaitState {
		_, err = p.EnableWaitState()
		errs = append(errs, err)
	}
	if opts.TemporalWindowNs > 0 {
		_, err = p.EnableTemporal(opts.TemporalWindowNs)
		errs = append(errs, err)
	}
	if opts.Callsites {
		_, err = p.EnableCallsites()
		errs = append(errs, err)
	}
	if opts.Sizes {
		_, err = p.EnableSizes()
		errs = append(errs, err)
	}
	_, err = p.EnableWindows(opts.WindowNs, opts.WindowSlideNs)
	tr := NewWindowTracker(opts.WindowNs, opts.WindowSlideNs, 0, nil)
	if err := errors.Join(append(errs, err, p.AttachWindowTracker(tr))...); err != nil {
		t.Fatal(err)
	}
	return d, p, tr
}

// oraclePacks encodes each rank's events, in order, as packs of perPack
// events in the given format.
func oraclePacks(t *testing.T, version int, perRank [][]trace.Event, perPack int) [][][]byte {
	t.Helper()
	out := make([][][]byte, len(perRank))
	for r, evs := range perRank {
		b, err := trace.NewBuilder(version, 1, int32(r), 48, trace.PackHeaderSize+perPack*48)
		if err != nil {
			t.Fatal(err)
		}
		for i := range evs {
			if b.Add(&evs[i]) {
				out[r] = append(out[r], b.Take())
			}
		}
		if last := b.Take(); last != nil {
			out[r] = append(out[r], last)
		}
	}
	return out
}

// roundRobinPacks hands over every rank's packs, one rank's next pack at a
// time, each rank's in order.
func roundRobinPacks(perRank [][][]byte, fn func(src int, pk []byte)) {
	for i, more := 0, true; more; i++ {
		more = false
		for r, packs := range perRank {
			if i < len(packs) {
				fn(r, packs[i])
				more = true
			}
		}
	}
}

// trackerAgrees closes a pack path's board and checks its tracker against
// the reference: it observed every event, and each window's on-time and
// late events add up to those whose last covering window it is. It
// returns the path's state.
func trackerAgrees(t *testing.T, path string, d *Dispatcher, p *Pipeline, tr *WindowTracker, perRank [][]trace.Event) *Partial {
	t.Helper()
	d.bb.Close()
	o := p.PartialOptions()
	want, events := map[int64]int64{}, int64(0)
	for _, seq := range perRank {
		for _, ev := range seq {
			cover := refCovering(ev.TStart, o.WindowNs, o.WindowSlideNs)
			want[cover[len(cover)-1]]++
			events++
		}
	}
	got := map[int64]int64{}
	for idx, n := range trackerCounts(tr) {
		got[idx] = n[0] + n[1]
	}
	if tr.Events() != events || !reflect.DeepEqual(got, want) {
		t.Errorf("%s: the tracker observed %d events, by last covering window %v; the reference %d, %v",
			path, tr.Events(), got, events, want)
	}
	return p.state
}

// oracleAgrees reports whether buf, the canonical encoding of a windowed
// partial holding evs, decodes to the values the reference computes from
// them, and fails t with the first difference if not.
func oracleAgrees(t *testing.T, what string, buf []byte, evs []trace.Event) bool {
	t.Helper()
	pp, err := DecodePartial(buf)
	if err != nil {
		t.Errorf("%s: %v", what, err)
		return false
	}
	o := pp.Options()
	got, want := engineRun(pp), refAnalyze(evs, o.AppSize, o.WindowNs, o.WindowSlideNs)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s (window %d, slide %d): the decoded series disagrees with the reference:\n%s",
			what, o.WindowNs, o.WindowSlideNs, refDiff(got, want))
		return false
	}
	return true
}

// refDiff names the first window, or the whole run, where two answers
// differ.
func refDiff(got, want refRun) string {
	if !reflect.DeepEqual(got.whole, want.whole) {
		return fmt.Sprintf("whole run: got %+v, want %+v", *got.whole, *want.whole)
	}
	for i, w := range want.wins {
		if g := got.wins[i]; g == nil || !reflect.DeepEqual(*g, *w) {
			return fmt.Sprintf("window %d: got %+v, want %+v", i, g, *w)
		}
	}
	return fmt.Sprintf("got %d windows, want %d", len(got.wins), len(want.wins))
}
