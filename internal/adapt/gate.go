// Package adapt closes the loop between the engine's self-telemetry and
// its runtime knobs: a controller reads the engine's health signals and,
// under overload, retunes the transport
// (credit windows, pack format, tree flush cadence) before degrading
// measurement itself through an admission gate that sheds event classes
// with counted, bounded loss. Shedding is never silent: every dropped
// event is counted by class, and the resulting completeness bound travels
// through the partial profiles into the final report.
package adapt

import (
	"sync/atomic"

	"repro/internal/trace"
)

// Gate is the recorder-path admission tier: a per-event-class sampling
// filter cheap enough to sit in front of every recorded event. Intervals
// are atomics so the controller (running on blackboard worker threads)
// can retune a gate while its rank records in simulation context; the
// decision itself (a Tally's) is deterministic counter-based 1-in-n
// sampling, so a fixed schedule sheds a reproducible event subset.
//
// A nil Gate admits everything; an open interval (0 or 1) admits the
// class, n > 1 admits every n-th event of the class, and a negative
// interval sheds the whole class.
type Gate struct {
	interval [trace.KindCount]atomic.Int32
	seen     [trace.KindCount]atomic.Int64
	kept     [trace.KindCount]atomic.Int64
	shed     [trace.KindCount]atomic.Int64
}

// NewGate returns a gate admitting every class.
func NewGate() *Gate { return &Gate{} }

// Admit decides one event alone, as a one-event Tally committed at once:
// the event meets the interval as it stands when the event is offered.
// The recorder admits this way. Safe to call concurrently with
// SetInterval.
func (g *Gate) Admit(k trace.Kind) bool {
	var t Tally
	t.Start(g)
	defer t.Commit()
	return t.Admit(k)
}

// Tally is one fold goroutine's admission decisions for a pack: Start
// reads the gate's per-class intervals once, Admit decides each event
// against them and counts it in plain fields, and Commit adds each class's
// counts to the gate with one atomic add. Only a sampling class touches
// the gate per event: its shared seen counter keeps 1-in-n exact however
// many goroutines admit into one gate. An interval retuned mid-pack
// applies from the next Start. A tally has one owner and lives on its
// stack; its zero value, or one started on a nil gate, admits everything
// and commits nothing.
type Tally struct {
	g *Gate
	// open: no class of the pack sheds or samples, so Admit only counts.
	open     bool
	interval [trace.KindCount]int32
	// kept has a cell for every Kind value, so an open pack counts an
	// event without a class check; Commit takes the known classes' cells.
	kept [256]int64
	shed [trace.KindCount]int64
}

// Start begins a pack against g.
func (t *Tally) Start(g *Gate) {
	t.g, t.open = g, true
	if g == nil {
		return
	}
	for k := range t.interval {
		iv := g.interval[k].Load()
		t.interval[k] = iv
		t.open = t.open && iv >= 0 && iv <= 1
	}
}

// Admit decides whether an event of the given class passes the gate, and
// counts it either way.
func (t *Tally) Admit(k trace.Kind) bool {
	if t.open {
		t.kept[k]++
		return true
	}
	return t.decide(k)
}

// decide is Admit's interval switch: an open class (0 or 1) is kept, a
// negative one shed, and one sampled 1-in-n keeps the event its gate has
// seen a multiple of n of before it. Out of line, so Admit's open path
// inlines into the decode callback.
//
//go:noinline
func (t *Tally) decide(k trace.Kind) bool {
	if !known(k) {
		return true // unknown class: never shed what we cannot account for
	}
	iv := t.interval[k]
	keep := iv >= 0 && (iv <= 1 || (t.g.seen[k].Add(1)-1)%int64(iv) == 0)
	if keep {
		t.kept[k]++
	} else {
		t.shed[k]++
	}
	return keep
}

// Commit adds what the tally counted since Start or the last Commit to the
// gate's ledger and empties the counts; the intervals stay those Start read.
func (t *Tally) Commit() {
	if g := t.g; g != nil {
		for k := 1; k < trace.KindCount; k++ {
			if n := t.kept[k]; n != 0 {
				g.kept[k].Add(n)
			}
			if n := t.shed[k]; n != 0 {
				g.shed[k].Add(n)
			}
		}
	}
	t.kept, t.shed = [256]int64{}, [trace.KindCount]int64{}
}

// known reports whether a gate accounts for class k: one compare, k-1
// wrapping KindInvalid past the end of the kind table.
func known(k trace.Kind) bool { return k-1 < trace.Kind(trace.KindCount-1) }

// SetInterval sets the class's sampling interval: 0 or 1 admits all,
// n > 1 admits one event in n, negative sheds all.
func (g *Gate) SetInterval(k trace.Kind, n int32) {
	if g == nil || !known(k) {
		return
	}
	g.interval[k].Store(n)
}

// TotalShed returns the gate's total shed count across classes.
func (g *Gate) TotalShed() int64 {
	if g == nil {
		return 0
	}
	var n int64
	for k := range g.shed {
		n += g.shed[k].Load()
	}
	return n
}

// Entries snapshots the gate's per-class ledger (classes with any
// traffic), in kind order.
func (g *Gate) Entries() []trace.AuditEntry {
	if g == nil {
		return nil
	}
	var out []trace.AuditEntry
	for _, k := range trace.Kinds() {
		shed, kept := g.shed[k].Load(), g.kept[k].Load()
		if shed == 0 && kept == 0 {
			continue
		}
		out = append(out, trace.AuditEntry{Kind: k, Shed: shed, Kept: kept})
	}
	return out
}

// AuditPack encodes the gate's shed ledger as a trace audit pack, or nil
// when nothing was shed. It satisfies the recorder's audit source, so a
// finalizing rank ships its loss accounting down the data stream it
// applies to.
func (g *Gate) AuditPack(appID uint32, srcRank int32) []byte {
	if g == nil {
		return nil
	}
	return trace.EncodeAuditPack(appID, srcRank, g.Entries())
}
