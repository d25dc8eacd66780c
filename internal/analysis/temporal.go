package analysis

import (
	"slices"
	"sync"

	"repro/internal/trace"
)

// TemporalModule builds the temporal maps of the paper's report (§IV-D
// lists "topologies, profiles, temporal and spatial maps for MPI and POSIX
// calls"): per-call-kind activity over time, bucketed into fixed windows
// of virtual time. Combined with the spatial density maps it answers
// *when* a behaviour happens, not just *where*.
//
// Buckets grow on demand as later events arrive; an event whose interval
// spans several buckets contributes its duration pro-rata to each (so
// long waits appear as sustained activity, not as a spike at their start).
type TemporalModule struct {
	mu sync.Mutex
	// window is the bucket width in virtual nanoseconds.
	window int64
	// perKind holds one per-bucket row per kind, grown as events arrive.
	perKind [kindSlots][]Stat
	buckets int
}

// NewTemporalModule creates a temporal module with the given bucket width
// in nanoseconds (e.g. 100 ms of virtual time).
func NewTemporalModule(windowNs int64) *TemporalModule {
	if windowNs <= 0 {
		windowNs = 1e8
	}
	return &TemporalModule{window: windowNs}
}

// Window returns the bucket width in nanoseconds.
func (m *TemporalModule) Window() int64 { return m.window }

// Add folds one event in.
func (m *TemporalModule) Add(ev *trace.Event) {
	m.mu.Lock()
	m.fold(ev)
	m.mu.Unlock()
}

func (m *TemporalModule) fold(ev *trace.Event) {
	start, end := ev.TStart, ev.TEnd
	if end < start {
		return
	}
	firstB := int(start / m.window)
	lastB := int(end / m.window)
	if lastB+1 > m.buckets {
		m.buckets = lastB + 1
	}
	per := m.perKind[ev.Kind]
	if len(per) <= lastB {
		per = growStats(per, m.buckets)
		m.perKind[ev.Kind] = per
	}
	// Hits and bytes land in the start bucket; time is spread pro-rata.
	per[firstB].Hits++
	per[firstB].Bytes += ev.Size
	dur := end - start
	if dur == 0 || firstB == lastB {
		per[firstB].TimeNs += dur
		return
	}
	for b := firstB; b <= lastB; b++ {
		bStart := int64(b) * m.window
		bEnd := bStart + m.window
		lo, hi := max64(start, bStart), min64(end, bEnd)
		if hi > lo {
			per[b].TimeNs += hi - lo
		}
	}
}

// mergeRows adds every row of src into m. Called with m.mu held.
func (m *TemporalModule) mergeRows(src *[kindSlots][]Stat) {
	for k, per := range src {
		if len(per) == 0 {
			continue
		}
		dst := growStats(m.perKind[k], len(per))
		m.perKind[k] = dst
		for b := range per {
			dst[b].merge(per[b])
		}
	}
}

// mergeReset folds o into m and zeroes o's buckets in place, keeping o's
// rows for reuse. The caller must own o exclusively; allocates only when
// m has to grow a kind's bucket row.
func (m *TemporalModule) mergeReset(o *TemporalModule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if o.buckets > m.buckets {
		m.buckets = o.buckets
	}
	m.mergeRows(&o.perKind)
	for _, per := range o.perKind {
		clear(per)
	}
}

// growStats extends a bucket row to at least n cells, into its spare
// capacity when it has some (a row truncated by a reset flush is all
// zeros up to its capacity).
func growStats(s []Stat, n int) []Stat {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	return append(s, make([]Stat, n-len(s))...)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Buckets returns the number of time buckets observed so far.
func (m *TemporalModule) Buckets() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buckets
}

// Kinds returns the call kinds observed, ascending.
func (m *TemporalModule) Kinds() []trace.Kind {
	m.mu.Lock()
	defer m.mu.Unlock()
	return kindsWhere(func(k int) bool { return m.perKind[k] != nil })
}

// Series returns the per-bucket values of one kind under one metric,
// padded to the module's full bucket count.
func (m *TemporalModule) Series(k trace.Kind, metric Metric) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]float64, m.buckets)
	for b, st := range m.perKind[k] {
		switch metric {
		case MetricHits:
			out[b] = float64(st.Hits)
		case MetricBytes:
			out[b] = float64(st.Bytes)
		case MetricTime:
			out[b] = float64(st.TimeNs)
		}
	}
	return out
}

// CommunicationTimeSeries sums time spent in any MPI communication
// (point-to-point, waits, collectives) per bucket — the report's headline
// temporal map.
func (m *TemporalModule) CommunicationTimeSeries() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]float64, m.buckets)
	for k, per := range m.perKind {
		if k := trace.Kind(k); !(k.IsP2P() || k.IsWait() || k.IsCollective()) {
			continue
		}
		for b, st := range per {
			out[b] += float64(st.TimeNs)
		}
	}
	return out
}

// Merge folds another temporal module (same window) into this one.
func (m *TemporalModule) Merge(o *TemporalModule) {
	o.mu.Lock()
	snap, ob := o.perKind, o.buckets
	for k, per := range snap {
		snap[k] = slices.Clone(per)
	}
	o.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if ob > m.buckets {
		m.buckets = ob
	}
	m.mergeRows(&snap)
}

// EnableTemporal adds a temporal-map module to the pipeline's state and
// returns it.
func (p *Pipeline) EnableTemporal(windowNs int64) (*TemporalModule, error) {
	if p.state.Temporal != nil {
		return nil, p.alreadyEnabled("temporal")
	}
	p.state.Temporal = NewTemporalModule(windowNs)
	p.state.opts.TemporalWindowNs = p.state.Temporal.Window()
	return p.state.Temporal, nil
}
