package analysis

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// Metamorphic relations over the modules keyed by channel and by call
// site, windows on: changes to how a run's events reach the fold that
// must not change what the fold ends at.

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
	rows := cum.Callsites.Top(0)
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
