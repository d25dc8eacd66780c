package analysis

import (
	"slices"
	"sync"

	"repro/internal/trace"
)

// ShedStat is one event class's loss ledger: how many events the
// recorder-side admission gate shed versus admitted.
type ShedStat struct {
	// Shed counts events dropped by the gate — measured by the gate
	// itself, so every lost event is accounted even though it never
	// reached the analysis.
	Shed int64
	// Kept counts events the gate admitted into the stream.
	Kept int64
}

// CompletenessModule accumulates the shed ledgers arriving in audit
// packs, per event class. It rides the same reduction machinery as the
// measurement modules — folded into partial profiles, merged at every
// tree tier — so the loss accounting provably covers the same stream
// topology as the data it bounds. Merging is a plain per-class sum:
// associative, commutative, identity-preserving.
type CompletenessModule struct {
	mu   sync.Mutex
	per  map[trace.Kind]*ShedStat
	keys []trace.Kind // the encoder's sort scratch
}

// NewCompletenessModule creates an empty ledger.
func NewCompletenessModule() *CompletenessModule {
	return &CompletenessModule{per: map[trace.Kind]*ShedStat{}}
}

// AddAudit folds one audit pack's entries into the ledger.
func (m *CompletenessModule) AddAudit(entries []trace.AuditEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range entries {
		st := entry(m.per, e.Kind)
		st.Shed += e.Shed
		st.Kept += e.Kept
	}
}

// Merge folds another ledger into this one.
func (m *CompletenessModule) Merge(o *CompletenessModule) {
	if o == nil {
		return
	}
	o.mu.Lock()
	entries := make([]trace.AuditEntry, 0, len(o.per))
	for k, st := range o.per {
		entries = append(entries, trace.AuditEntry{Kind: k, Shed: st.Shed, Kept: st.Kept})
	}
	o.mu.Unlock()
	m.AddAudit(entries)
}

// mergeReset folds o into m and zeroes o's ledger in place, keeping o's
// keys for reuse. The caller must own o exclusively.
func (m *CompletenessModule) mergeReset(o *CompletenessModule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, st := range o.per {
		dst := entry(m.per, k)
		dst.Shed += st.Shed
		dst.Kept += st.Kept
		*st = ShedStat{}
	}
}

// AppendKinds appends the classes with ledger entries, in kind order, to
// dst and returns the extended slice.
func (m *CompletenessModule) AppendKinds(dst []trace.Kind) []trace.Kind {
	m.mu.Lock()
	defer m.mu.Unlock()
	base := len(dst)
	for k := range m.per {
		dst = append(dst, k)
	}
	slices.Sort(dst[base:])
	return dst
}

// Stat returns one class's ledger entry.
func (m *CompletenessModule) Stat(k trace.Kind) ShedStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.per[k]; st != nil {
		return *st
	}
	return ShedStat{}
}

// Bound returns the class's loss bound shed/(shed+analyzed): the fraction
// of the class's events missing from a chapter that analyzed `analyzed`
// of them. It is conservative — analyzed never exceeds the gate's kept
// count (downstream losses only shrink it), so the reported bound is
// always ≥ the true gate-level loss fraction shed/(shed+kept).
func (m *CompletenessModule) Bound(k trace.Kind, analyzed int64) float64 {
	st := m.Stat(k)
	if st.Shed <= 0 {
		return 0
	}
	if analyzed < 0 {
		analyzed = 0
	}
	return float64(st.Shed) / float64(st.Shed+analyzed)
}

// Empty reports whether the ledger has no shed events at all (kept-only
// entries count as empty: nothing was lost, nothing to bound).
func (m *CompletenessModule) Empty() bool {
	if m == nil {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.per {
		if st.Shed > 0 {
			return false
		}
	}
	return true
}
