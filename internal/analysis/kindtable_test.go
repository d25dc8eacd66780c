package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/trace"
)

// oddKindEvents is a seeded stream over the kinds at the edges of the kind
// tables — 0 (invalid), 21 (the last named kind), 22 and 255 (kinds this
// build has no name for, which a pack dictionary can still carry) — with
// two named p2p kinds mixed in so every module has something to say.
func oddKindEvents() [][]trace.Event {
	rng := rand.New(rand.NewSource(17))
	perRank := genRankEvents(rng, 4, 400)
	kinds := []trace.Kind{0, 21, 22, 255, trace.KindSend, trace.KindRecv}
	for r := range perRank {
		for i := range perRank[r] {
			perRank[r][i].Kind = kinds[rng.Intn(len(kinds))]
		}
	}
	return perRank
}

// oddKindsGolden is the SHA-256 of the canonical bytes oddKindEvents folds
// to (every module on, tumbling windows), captured on the commit before
// the kind tables replaced the kind-keyed maps (52fd8a5).
const oddKindsGolden = "206401a1e30354e40e70cdc48dfd71c7ba58517cf5d63a52aa876c6e31fd297e"

// TestUnnamedKindsCanonicalBytes: kinds outside the named range are
// counted and encoded exactly as the map-keyed modules did, whichever way
// the events reach a partial — AddEvent, a replica's fold, Merge,
// MergeReset or MergeEncoded.
func TestUnnamedKindsCanonicalBytes(t *testing.T) {
	perRank := oddKindEvents()
	opts := windowedAllOpts(4, 0)
	all := []int{0, 1, 2, 3}
	fold := func(dst func(*trace.Event), ranks []int) {
		for _, r := range ranks {
			for i := range perRank[r] {
				dst(&perRank[r][i])
			}
		}
	}
	halves := func() (*Partial, *Partial) {
		a, b := NewPartial(5, opts), NewPartial(5, opts)
		fold(a.AddEvent, all[:2])
		fold(b.AddEvent, all[2:])
		return a, b
	}
	paths := map[string]func() *Partial{
		"AddEvent": func() *Partial {
			pp := NewPartial(5, opts)
			fold(pp.AddEvent, all)
			return pp
		},
		"Replica.Fold": func() *Partial {
			rep := NewReplica(5, opts)
			fold(rep.Fold, all)
			return rep.Partial()
		},
		"Merge": func() *Partial {
			a, b := halves()
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			return a
		},
		"MergeReset": func() *Partial {
			a, b := halves()
			if err := a.MergeReset(b); err != nil {
				t.Fatal(err)
			}
			if n := b.Profiler.Events(); n != 0 {
				t.Fatalf("MergeReset left %d events behind", n)
			}
			return a
		},
		"MergeEncoded": func() *Partial {
			a, b := halves()
			if err := a.MergeEncoded(b.AppendCanonical(nil)); err != nil {
				t.Fatal(err)
			}
			return a
		},
	}
	for name, build := range paths {
		pp := build()
		for _, k := range []trace.Kind{0, 21, 22, 255} {
			if pp.Profiler.Stat(k).Hits == 0 {
				t.Errorf("%s: kind %d was not counted", name, k)
			}
		}
		sum := sha256.Sum256(pp.AppendCanonical(nil))
		if got := hex.EncodeToString(sum[:]); got != oddKindsGolden {
			t.Errorf("%s: canonical bytes hash to %s, want %s", name, got, oddKindsGolden)
		}
	}
	// The report reads the profile through Kinds: it must list them too.
	listed := paths["AddEvent"]().Profiler.Kinds()
	for _, k := range []trace.Kind{0, 21, 22, 255} {
		if !slices.Contains(listed, k) {
			t.Errorf("Profiler.Kinds() = %v omits kind %d", listed, k)
		}
	}
}
