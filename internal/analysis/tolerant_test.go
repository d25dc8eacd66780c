package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/trace"
)

// tolerantEvents is a fixed stream that gives every module something to
// hold: sends and receives that pair (and some that stay pending), a
// collective, several call sites and sizes, three virtual-time windows.
func tolerantEvents() []trace.Event {
	var evs []trace.Event
	for i := 0; i < 48; i++ {
		r, peer := int32(i%4), int32((i+1)%4)
		t0 := int64(i) * 700
		evs = append(evs, trace.Event{Kind: trace.KindIsend, Rank: r, Peer: peer, Tag: 3, Comm: 1,
			Ctx: uint32(10 + i%3), Size: int64(64 << (i % 5)), TStart: t0, TEnd: t0 + 150})
		if i%3 != 0 {
			evs = append(evs, trace.Event{Kind: trace.KindRecv, Rank: peer, Peer: r, Tag: 3, Comm: 1,
				Ctx: 20, Size: int64(64 << (i % 5)), TStart: t0 - 90, TEnd: t0 + 300})
		}
		if i%8 == 7 {
			evs = append(evs, trace.Event{Kind: trace.KindBarrier, Rank: r, Peer: -1, Tag: -1, Comm: 1,
				Ctx: 30, TStart: t0 + 310, TEnd: t0 + 650})
		}
	}
	return evs
}

// tolerantEnables lists every optional module with the call that enables
// it, in the order a run enables them (windows last: the inner selection
// mirrors what is on by then).
var tolerantEnables = []struct {
	name   string
	enable func(*Pipeline) error
}{
	{"waitstate", func(p *Pipeline) error { _, err := p.EnableWaitState(); return err }},
	{"temporal", func(p *Pipeline) error { _, err := p.EnableTemporal(5_000); return err }},
	{"callsites", func(p *Pipeline) error { _, err := p.EnableCallsites(); return err }},
	{"sizes", func(p *Pipeline) error { _, err := p.EnableSizes(); return err }},
	{"windows", func(p *Pipeline) error { _, err := p.EnableWindows(12_000, 0); return err }},
}

// TestTolerantMergesMatchParent pins the merge that skips what one side
// lacks instead of refusing: MergeReplica of a replica minted before or
// after each Enable*. It shares Partial's merge bodies with the checked
// MergeReset; the fingerprints are the pipeline's full canonical state as
// commit dff0248 — where it was a hand-written module list — produced it,
// the windows rows re-pinned for the window layout of kind table and wait
// sums (the after row's decoded values checked by the naive reference; a
// replica minted before EnableWindows folds no window, so the before row's
// windows hold only the pairs the pipeline settles and credits).
// (The other tolerant merge, AbsorbPartial of a partial carrying modules the
// pipeline lacks, went with its last caller: the tree root absorbs encoded
// partials of the pipeline's own selection, TestAbsorbEncodedMatchesDecodeAbsorb.)
func TestTolerantMergesMatchParent(t *testing.T) {
	evs := tolerantEvents()
	got := map[string]string{}
	record := func(name string, p *Pipeline) {
		if name == "replica-after/windows" {
			oracleAgrees(t, name, pipelineCanonical(p), evs)
		}
		sum := sha256.Sum256(pipelineCanonical(p))
		got[name] = hex.EncodeToString(sum[:8])
	}

	// A replica minted with the first k modules on, merged into a pipeline
	// that then has k or k+1 of them.
	for k, next := range tolerantEnables {
		for _, when := range []string{"before", "after"} {
			p, err := NewPipeline(newBoard(t), "app", 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range tolerantEnables[:k] {
				if err := e.enable(p); err != nil {
					t.Fatal(err)
				}
			}
			var rep *Replica
			if when == "before" {
				rep = p.NewReplica()
			}
			if err := next.enable(p); err != nil {
				t.Fatal(err)
			}
			if when == "after" {
				rep = p.NewReplica()
			}
			for i := range evs {
				rep.Fold(&evs[i])
			}
			rep.Partial().AddAudit([]trace.AuditEntry{{Kind: trace.KindRecv, Shed: 2, Kept: 30}})
			p.MergeReplica(rep)
			if n := rep.Partial().Profiler.Events(); n != 0 {
				t.Fatalf("replica minted %s %s holds %d events after its merge", when, next.name, n)
			}
			record("replica-"+when+"/"+next.name, p)
		}
	}

	for name, want := range tolerantGolden {
		if got[name] != want {
			t.Errorf("%s: canonical state %s, want %s", name, got[name], want)
		}
	}
	if len(got) != len(tolerantGolden) {
		t.Errorf("recorded %d cases, golden has %d: %v", len(got), len(tolerantGolden), got)
	}
}

// pipelineCanonical is the canonical encoding of everything a pipeline
// holds: every module, the window series and the shed ledger.
func pipelineCanonical(p *Pipeline) []byte { return p.state.AppendCanonical(nil) }

var tolerantGolden = map[string]string{
	"replica-before/waitstate": "e6636298e8ad2742",
	"replica-after/waitstate":  "0c032351d84243d5",
	"replica-before/temporal":  "49e2c6fc3318aadc",
	"replica-after/temporal":   "6f464aef12ebfb10",
	"replica-before/callsites": "ee25d7a3144973dd",
	"replica-after/callsites":  "12cbff46ce42ccbd",
	"replica-before/sizes":     "dba85d38a2572198",
	"replica-after/sizes":      "b679035f3600ed61",
	"replica-before/windows":   "b132c2beb477deb2",
	"replica-after/windows":    "b1fa9eea53fb29b6",
}
