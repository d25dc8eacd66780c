package analysis

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blackboard"
	"repro/internal/trace"
)

// absorbGolden is the canonical state (sha256) a pipeline with the first k
// optional modules of tolerantEnables on reached at commit 43b75c3 by
// AbsorbPartial(DecodePartial(bytes)), twice, of the final-flush bytes of a
// partial of its own selection holding tolerantEvents and a shed ledger.
var absorbGolden = []string{
	"6afc688cc1dcd1fbd25ced252e10f6c9364ca009dbf72964e9a8b5dcdf828623", // core
	"d92ede28702f23b8024c581b3ee7b1e45853ff47342e50f4c8f66ff53b65fd9a", // + waitstate
	"daa16b5a24e07093bcb328a4a73b82cecfd81af7432f47b19a9461211ed29ddd", // + temporal
	"a068e9b86e26508175022dbc3f516e5588b864d4a193ee61eb2c121ef83f5923", // + callsites
	"311b209070956aa61ee085fb5214335a2a50c1303b1a4fb581d5f4a6667059e8", // + sizes
	"1280450b8f8edc4a50a0f761b317c89d3970851045df4f7266625ec2fefcdb1b", // + windows
}

// absorbFixture is a dispatcher with one application (id 7) that has the
// first k optional modules on.
func absorbFixture(t *testing.T, k, ranks int) (*Dispatcher, *Pipeline) {
	t.Helper()
	bb := blackboard.New(blackboard.Config{Workers: 1})
	t.Cleanup(bb.Close)
	d, err := NewDispatcher(bb)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.AddApp(7, "app", ranks)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tolerantEnables[:k] {
		if err := e.enable(p); err != nil {
			t.Fatal(err)
		}
	}
	return d, p
}

// TestAbsorbEncodedMatchesDecodeAbsorb holds the root's one way in to the
// state the decode-then-copy-merge path it replaced produced, for every
// module selection, and to refusing what that path tolerated: a partial of
// another selection.
func TestAbsorbEncodedMatchesDecodeAbsorb(t *testing.T) {
	evs := tolerantEvents()
	encoded := make([][]byte, len(absorbGolden))
	for k := range absorbGolden {
		d, p := absorbFixture(t, k, 4)
		full := NewPartial(7, p.PartialOptions())
		for i := range evs {
			full.AddEvent(&evs[i])
		}
		full.AddAudit([]trace.AuditEntry{{Kind: trace.KindIsend, Shed: 5, Kept: 48}})
		encoded[k] = full.Flush(nil, true)
		for i := 0; i < 2; i++ { // bytes are not consumed: they absorb again
			if err := d.AbsorbEncoded(encoded[k]); err != nil {
				t.Fatalf("selection %d: %v", k, err)
			}
		}
		sum := sha256.Sum256(pipelineCanonical(p))
		if got := hex.EncodeToString(sum[:]); got != absorbGolden[k] {
			t.Errorf("selection %d: canonical state %s, want %s", k, got, absorbGolden[k])
		}
	}
	for k := range absorbGolden {
		d, p := absorbFixture(t, k, 4)
		if err := d.AbsorbEncoded(encoded[k]); err != nil {
			t.Fatal(err)
		}
		before := pipelineCanonical(p)
		for other, buf := range encoded {
			if other == k {
				continue
			}
			if err := d.AbsorbEncoded(buf); err == nil {
				t.Errorf("pipeline of selection %d absorbed a partial of selection %d", k, other)
			}
		}
		if !bytes.Equal(pipelineCanonical(p), before) {
			t.Errorf("selection %d: a refused partial changed the state", k)
		}
	}
}

// leafRunPartials is one seeded multi-leaf run as the root sees it: ranks
// exchange messages around a ring, rank r's stream folds at leaf r mod
// leaves — so each side of a channel reaches the root through one leaf, as
// the stream map arranges it — and every leaf ships a delta flush every
// flushEvery events and a final flush with its pending queues.
func leafRunPartials(opts PartialOptions, seed int64, ranks, leaves, perRank, flushEvery int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	var out [][]byte
	for l := 0; l < leaves; l++ {
		leaf := NewPartial(7, opts)
		folded := 0
		for r := l; r < ranks; r += leaves {
			now := int64(r)
			for i := 0; i < perRank; i++ {
				now += int64(rng.Intn(900)) + 1
				ev := trace.Event{Rank: int32(r), Tag: int32(i / 2 % 3), Comm: 1, Ctx: uint32(10 + i%4),
					Size: int64(32 << rng.Intn(6)), TStart: now, TEnd: now + int64(rng.Intn(400)) + 1}
				switch i % 2 {
				case 0:
					ev.Kind, ev.Peer = trace.KindIsend, int32((r+1)%ranks)
				default:
					ev.Kind, ev.Peer = trace.KindRecv, int32((r+ranks-1)%ranks)
				}
				now = ev.TEnd
				leaf.AddEvent(&ev)
				if folded++; folded%flushEvery == 0 {
					out = append(out, leaf.Flush(nil, false))
				}
			}
		}
		out = append(out, leaf.Flush(nil, true))
	}
	return out
}

// TestAbsorbEncodedOrderIndependent: the root may see a run's partials in
// any order — leaves and aggregators flush on their own clocks, failover
// reroutes blocks — and must reach the same state. The pairwise reducer
// this replaced exercised that by accident of worker scheduling; here it
// is a property, with wait-state pairing and the window series on.
func TestAbsorbEncodedOrderIndependent(t *testing.T) {
	const everything = 5 // all of tolerantEnables
	_, ref := absorbFixture(t, everything, 8)
	partials := leafRunPartials(ref.PartialOptions(), 42, 8, 3, 120, 70)
	absorb := func(order []int) []byte {
		d, p := absorbFixture(t, everything, 8)
		for _, i := range order {
			if err := d.AbsorbEncoded(partials[i]); err != nil {
				t.Fatal(err)
			}
		}
		return pipelineCanonical(p)
	}
	inOrder := make([]int, len(partials))
	for i := range inOrder {
		inOrder[i] = i
	}
	want := absorb(inOrder)
	shuffled := func(seed int64) bool {
		return bytes.Equal(absorb(rand.New(rand.NewSource(seed)).Perm(len(partials))), want)
	}
	if err := quick.Check(shuffled, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
