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
// can retune a gate while its rank records in simulation context; Admit
// itself is deterministic counter-based 1-in-n sampling, so a fixed
// schedule sheds a reproducible event subset.
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

// Admit decides whether an event of the given class passes the gate, and
// counts it either way. Safe to call concurrently with SetInterval.
func (g *Gate) Admit(k trace.Kind) bool {
	if g == nil {
		return true
	}
	if k <= trace.KindInvalid || int(k) >= trace.KindCount {
		return true // unknown class: never shed what we cannot account for
	}
	iv := g.interval[k].Load()
	switch {
	case iv < 0:
		g.shed[k].Add(1)
		return false
	case iv <= 1:
		g.kept[k].Add(1)
		return true
	}
	if (g.seen[k].Add(1)-1)%int64(iv) == 0 {
		g.kept[k].Add(1)
		return true
	}
	g.shed[k].Add(1)
	return false
}

// SetInterval sets the class's sampling interval: 0 or 1 admits all,
// n > 1 admits one event in n, negative sheds all.
func (g *Gate) SetInterval(k trace.Kind, n int32) {
	if g == nil || k <= trace.KindInvalid || int(k) >= trace.KindCount {
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
