package analysis

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// Metamorphic relations over the modules keyed by channel and by call
// site, windows on: changes to how a run's events reach the fold that
// must not change what the fold ends at, and changes to the events that
// must change it in a way known in advance.

// cutPacks cuts each rank's stream into packs of 1..maxPack events and
// interleaves the packs at random, each rank's packs in their order: one
// arrival order a daemon can see.
func cutPacks(rng *rand.Rand, perRank [][]trace.Event, maxPack int) [][]trace.Event {
	var byRank [][][]trace.Event
	for _, evs := range perRank {
		var packs [][]trace.Event
		for len(evs) > 0 {
			n := min(len(evs), 1+rng.Intn(maxPack))
			packs, evs = append(packs, evs[:n]), evs[n:]
		}
		byRank = append(byRank, packs)
	}
	var out [][]trace.Event
	for {
		var open []int
		for r, packs := range byRank {
			if len(packs) > 0 {
				open = append(open, r)
			}
		}
		if len(open) == 0 {
			return out
		}
		r := open[rng.Intn(len(open))]
		out, byRank[r] = append(out, byRank[r][0]), byRank[r][1:]
	}
}

// sealEvery folds packs into a delta, seals it into a cumulative partial
// every 1..maxEpoch packs (Flush → MergeEncoded, the daemon's seal), seals
// the rest with the final flush, and returns the cumulative state's
// canonical bytes.
func sealEvery(t *testing.T, rng *rand.Rand, opts PartialOptions, packs [][]trace.Event, maxEpoch int) []byte {
	t.Helper()
	delta, cum := NewPartial(1, opts), NewPartial(1, opts)
	var buf []byte
	seal := func(final bool) {
		buf = delta.Flush(buf[:0], final)
		if err := cum.MergeEncoded(buf); err != nil {
			t.Fatal(err)
		}
	}
	next := 1 + rng.Intn(maxEpoch)
	for i, pack := range packs {
		for j := range pack {
			delta.AddEvent(&pack[j])
		}
		if i+1 == next {
			seal(false)
			next += 1 + rng.Intn(maxEpoch)
		}
	}
	seal(true)
	return cum.AppendCanonical(nil)
}

// TestCanonicalIndependentOfPackCutsAndOrder: with wait-state, call sites
// and windows on, re-cutting each writer's pack boundaries, reordering
// the writers' packs against each other and sealing at arbitrary packs
// all end at the canonical bytes of one partial that folded each rank's
// stream whole.
func TestCanonicalIndependentOfPackCutsAndOrder(t *testing.T) {
	for _, slide := range []int64{0, 500} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			opts := windowedAllOpts(6, slide)
			perRank := genRankEvents(rng, opts.AppSize, 600)
			want := buildPartial(1, opts, perRank, []int{0, 1, 2, 3, 4, 5}).AppendCanonical(nil)
			for variant := 0; variant < 3; variant++ {
				packs := cutPacks(rng, perRank, 1+rng.Intn(40))
				if got := sealEvery(t, rng, opts, packs, 1+rng.Intn(6)); !bytes.Equal(got, want) {
					t.Fatalf("slide %d seed %d variant %d: %d packs end at %d canonical bytes, the whole streams at %d, and they differ",
						slide, seed, variant, len(packs), len(got), len(want))
				}
			}
		}
	}
}

// TestCallsiteKeyLayoutSurvivesSeal pins the call-site key's packing: a
// context id above 2^24 and kind 255, the widest a kind gets, come back
// out of a Flush → MergeEncoded round trip as they went in, and call
// sites that differ only in a context bit above 24 stay apart.
func TestCallsiteKeyLayoutSurvivesSeal(t *testing.T) {
	opts := windowedAllOpts(2, 0)
	sites := []struct {
		ctx  uint32
		kind trace.Kind
	}{
		{1 << 24, 255}, {1<<24 | 5, 0}, {5, 0}, {math.MaxUint32, 255}, {math.MaxUint32, 1}, {1<<24 - 1, 255},
	}
	delta, cum := NewPartial(1, opts), NewPartial(1, opts)
	for i, s := range sites {
		ev := trace.Event{Kind: s.kind, Rank: int32(i % 2), Peer: -1, Tag: -1, Ctx: s.ctx,
			TStart: int64(100 * i), TEnd: int64(100*i + 10 + i)}
		delta.AddEvent(&ev)
	}
	if err := cum.MergeEncoded(delta.Flush(nil, true)); err != nil {
		t.Fatal(err)
	}
	rows := cum.Callsites.AppendTop(nil, 0)
	if len(rows) != len(sites) {
		t.Fatalf("%d call sites went in, %d came out: %+v", len(sites), len(rows), rows)
	}
	for i, s := range sites {
		found := false
		for _, row := range rows {
			if row.Ctx == s.ctx && row.Kind == s.kind {
				found = true
				if row.Stat.Hits != 1 || row.Stat.TimeNs != int64(10+i) {
					t.Errorf("call site (%#x, %d) came back as %+v", s.ctx, s.kind, row.Stat)
				}
			}
		}
		if !found {
			t.Errorf("call site (%#x, %d) did not come back: %+v", s.ctx, s.kind, rows)
		}
	}
}

// cell names one value a partial decodes to: the section it is read from,
// the temporal bucket or window index it sits at (0 where there is none),
// and what it counts.
type cell struct {
	section string
	index   int64
	what    string
}

// decodedCells reads every nonzero value pp's canonical bytes decode to,
// module by module as the report reads them, the window series included.
func decodedCells(t *testing.T, pp *Partial) map[cell]float64 {
	t.Helper()
	dec, err := DecodePartial(pp.AppendCanonical(nil))
	if err != nil {
		t.Fatal(err)
	}
	out := map[cell]float64{}
	readCells(dec, "", 0, out)
	return out
}

// readCells adds pp's nonzero values to out, its sections under prefix
// and, but for the temporal buckets, at index.
func readCells(pp *Partial, prefix string, index int64, out map[cell]float64) {
	put := func(section string, i int64, what string, v float64) {
		if v != 0 {
			out[cell{prefix + section, i, what}] += v
		}
	}
	stat := func(section string, i int64, what string, st Stat) {
		put(section, i, what+" hits", float64(st.Hits))
		put(section, i, what+" bytes", float64(st.Bytes))
		put(section, i, what+" time", float64(st.TimeNs))
	}
	var kinds []trace.Kind
	metrics := []Metric{MetricHits, MetricBytes, MetricTime}
	put("profiler", index, "events", float64(pp.Profiler.Events()))
	for _, ks := range pp.Profiler.AppendStats(nil) {
		kinds = append(kinds, ks.Kind)
		stat("profiler", index, ks.Kind.String(), ks.Stat)
	}
	if pp.Topology != nil {
		for _, e := range pp.Topology.AppendEdges(nil) {
			stat("topology", index, fmt.Sprintf("%d→%d", e.Src, e.Dst), e.Stat)
		}
	}
	if d := pp.Density; d != nil {
		maps := map[string][]float64{"p2p size": d.AppendP2PSizeMap(nil), "wait time": d.AppendWaitTimeMap(nil), "collective time": d.AppendCollectiveTimeMap(nil)}
		for _, k := range kinds {
			for _, m := range metrics {
				maps[fmt.Sprint(k, " metric ", m)] = d.AppendMap(nil, k, m)
			}
		}
		for name, vals := range maps {
			for r, v := range vals {
				put("density", index, fmt.Sprint(name, " rank ", r), v)
			}
		}
	}
	if pp.Sizes != nil {
		for _, b := range pp.Sizes.AppendHistogram(nil) {
			stat("sizes", index, fmt.Sprint(b.Lo, "..", b.Hi), Stat{Hits: b.Hits, Bytes: b.Bytes})
		}
	}
	if pp.Callsites != nil {
		for _, row := range pp.Callsites.AppendTop(nil, 0) {
			stat("callsites", index, fmt.Sprint(row.Ctx, " ", row.Kind), row.Stat)
		}
	}
	if pp.Temporal != nil {
		for _, k := range kinds {
			for _, m := range metrics {
				for b, v := range pp.Temporal.Series(k, m) {
					put("temporal", int64(b), fmt.Sprint(k, " metric ", m), v)
				}
			}
		}
	}
	if w := pp.Waits; w != nil {
		put("waits", index, "pairs", float64(w.Pairs()))
		put("waits", index, "unmatched", float64(w.Unmatched()))
		hits := w.LateSenderHits()
		for r, ns := range w.AppendLateSenderMap(nil) {
			put("waits", index, fmt.Sprint("late ns rank ", r), ns)
			put("waits", index, fmt.Sprint("late hits rank ", r), float64(hits[r]))
		}
	}
	if pp.Windows != nil {
		var wins []*Partial
		first, refs := pp.Windows.AppendSeries(nil, func(wp *Partial) float64 {
			wins = append(wins, wp)
			return float64(len(wins))
		})
		for i, ref := range refs {
			if ref != 0 {
				readCells(wins[int(ref)-1], prefix+"window/", first+int64(i), out)
			}
		}
	}
}

// metamorphicStream is oracleStream moved to start one window width
// after zero or later, and the options of a partial with every module and
// a window series on: temporal buckets of 1 000 ns, windows 600..3 000 ns
// wide, tumbling or sliding, in steps of 100 ns. (Nothing before zero: the
// fold clamps earlier starts to zero and has no window of negative index,
// neither of which a shift carries along.)
func metamorphicStream(rng *rand.Rand) ([][]trace.Event, PartialOptions) {
	const appSize = 5
	opts := allPartialOpts(appSize)
	opts.WindowNs = 100 * int64(6+rng.Intn(25))
	if rng.Intn(2) == 1 {
		opts.WindowSlideNs = 100 * int64(1+rng.Intn(int(opts.WindowNs/100)))
	}
	perRank := oracleStream(rng, appSize)
	for _, seq := range perRank {
		for i := range seq {
			seq[i].TStart += 200 + opts.WindowNs
			seq[i].TEnd += 200 + opts.WindowNs
		}
	}
	return perRank, opts
}

// foldedCells folds perRank into a fresh partial, each rank's events in
// order, and reads its decoded cells.
func foldedCells(t *testing.T, opts PartialOptions, perRank [][]trace.Event) map[cell]float64 {
	t.Helper()
	pp := NewPartial(1, opts)
	roundRobin(perRank, pp.AddEvent)
	return decodedCells(t, pp)
}

// TestTimeShiftRelation: shifting every timestamp by Δ, a common multiple
// of the temporal bucket and the window stride, moves the temporal buckets
// by Δ/bucket and the windows by Δ/stride, and leaves every other decoded
// value as it was, wait-state lateness included. 300 generated streams,
// with unnamed kinds, peers and a rank outside the application, wildcard
// completions and zero-duration calls.
func TestTimeShiftRelation(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		perRank, opts := metamorphicStream(rng)
		stride := opts.WindowSlideNs
		if stride == 0 {
			stride = opts.WindowNs
		}
		lcm := opts.TemporalWindowNs
		for lcm%stride != 0 {
			lcm += opts.TemporalWindowNs
		}
		delta := lcm * int64(1+rng.Intn(3))
		shifted := make([][]trace.Event, len(perRank))
		for r, seq := range perRank {
			for _, ev := range seq {
				ev.TStart += delta
				ev.TEnd += delta
				shifted[r] = append(shifted[r], ev)
			}
		}
		want := foldedCells(t, opts, perRank)
		got := map[cell]float64{}
		for c, v := range foldedCells(t, opts, shifted) {
			switch {
			case c.section == "temporal":
				c.index -= delta / opts.TemporalWindowNs
			case strings.HasPrefix(c.section, "window/"):
				c.index -= delta / stride
			}
			got[c] = v
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (window %d, slide %d, Δ %d): %s", seed, opts.WindowNs, opts.WindowSlideNs, delta, cellDiff(got, want))
		}
	}
}

// TestDuplicationRelation: following every event by a copy of itself
// doubles every additive cell — profiler, topology, density, sizes, call
// sites, temporal buckets, the wait-state pair and unmatched counts and
// late time, and each window's — and moves nothing. 300 generated
// streams, as TestTimeShiftRelation's.
func TestDuplicationRelation(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		perRank, opts := metamorphicStream(rng)
		doubled := make([][]trace.Event, len(perRank))
		for r, seq := range perRank {
			for _, ev := range seq {
				doubled[r] = append(doubled[r], ev, ev)
			}
		}
		want := foldedCells(t, opts, perRank)
		for c, v := range want {
			want[c] = 2 * v
		}
		if got := foldedCells(t, opts, doubled); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (window %d, slide %d): %s", seed, opts.WindowNs, opts.WindowSlideNs, cellDiff(got, want))
		}
	}
}

// cellDiff names the first cell two readings disagree on.
func cellDiff(got, want map[cell]float64) string {
	for c, w := range want {
		if g, ok := got[c]; !ok || g != w {
			return fmt.Sprintf("%+v: got %v, want %v", c, g, w)
		}
	}
	for c, g := range got {
		if _, ok := want[c]; !ok {
			return fmt.Sprintf("%+v: got %v, want nothing", c, g)
		}
	}
	return "no difference"
}
