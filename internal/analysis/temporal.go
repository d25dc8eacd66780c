package analysis

import (
	"math/bits"
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
// A row holds at most maxTemporalBuckets buckets: past them the width in
// effect doubles and bucket pairs merge. Sums are exact under pairing, so
// the rows are a fold's at the coarser width, which depends only on the
// latest event seen, not on the order or merges that brought it.
type TemporalModule struct {
	mu sync.Mutex
	// window is the bucket width in effect, base<<shift virtual
	// nanoseconds; base is the configured width.
	window, base int64
	shift        uint
	// perKind holds one per-bucket row per kind, grown as events arrive.
	perKind [kindSlots][]Stat
	buckets int
}

// maxTemporalBuckets is B, the most buckets a row holds. No committed
// result, golden or bench workload comes near it (results/' most is fig.
// 18 BT's 26), so all keep their width and bytes; one event at 16 h over
// 1 µs buckets used to ask for 5.8·10¹⁰ cells.
const (
	temporalBits       = 12
	maxTemporalBuckets = 1 << temporalBits
)

// NewTemporalModule creates a temporal module with the given bucket width
// in nanoseconds (e.g. 100 ms of virtual time).
func NewTemporalModule(windowNs int64) *TemporalModule {
	if windowNs <= 0 {
		windowNs = 1e8
	}
	return &TemporalModule{window: windowNs, base: windowNs}
}

// Window returns the bucket width in effect in nanoseconds: the configured
// one, doubled each time the rows filled up.
func (m *TemporalModule) Window() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.window
}

// Add folds one event in.
func (m *TemporalModule) Add(ev *trace.Event) {
	m.mu.Lock()
	m.fold(ev)
	m.mu.Unlock()
}

func (m *TemporalModule) fold(ev *trace.Event) {
	if ev.TEnd < ev.TStart {
		return
	}
	// Time before zero counts at zero, as the window series counts it: a
	// negative bucket index has no row.
	start, end := max(ev.TStart, 0), max(ev.TEnd, 0)
	lastB := int(end / m.window)
	if lastB >= maxTemporalBuckets {
		m.coarsen(uint(bits.Len(uint(lastB))) - temporalBits)
		lastB = int(end / m.window)
	}
	firstB := int(start / m.window)
	m.buckets = max(m.buckets, lastB+1)
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
		lo, hi := max(start, int64(b)*m.window), min(end, int64(b+1)*m.window)
		if hi > lo {
			per[b].TimeNs += hi - lo
		}
	}
}

// coarsen multiplies the width in effect by 2^k and sums each run of 2^k
// buckets into one, in place: the cells a row no longer reaches are left
// zero, as growStats expects of spare capacity. Called with m.mu held.
func (m *TemporalModule) coarsen(k uint) {
	for kind, per := range m.perKind {
		for i, st := range per {
			per[i] = Stat{}
			per[i>>k].merge(st)
		}
		m.perKind[kind] = per[:ceilShift(len(per), k)]
	}
	m.buckets = ceilShift(m.buckets, k)
	m.window <<= k
	m.shift += k
}

// ceilShift is n/2^k rounded up: how many buckets n become at 2^k times
// the width.
func ceilShift(n int, k uint) int { return (n + 1<<k - 1) >> k }

// mergeRows adds the rows, bucket count and shift of a module of the same
// configured width into m, coarsening the finer side (src stays as it is).
// Called with m.mu held.
func (m *TemporalModule) mergeRows(src *[kindSlots][]Stat, buckets int, shift uint) {
	if shift > m.shift {
		m.coarsen(shift - m.shift)
	}
	d := m.shift - shift
	m.buckets = max(m.buckets, ceilShift(buckets, d))
	for k, per := range src {
		if len(per) == 0 {
			continue
		}
		dst := growStats(m.perKind[k], ceilShift(len(per), d))
		m.perKind[k] = dst
		for b := range per {
			dst[b>>d].merge(per[b])
		}
	}
}

// mergeReset folds o into m and zeroes o's buckets in place, keeping o's
// rows for reuse. The caller must own o exclusively; allocates only when
// m has to grow a kind's bucket row.
func (m *TemporalModule) mergeReset(o *TemporalModule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mergeRows(&o.perKind, o.buckets, o.shift)
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

// Buckets returns the number of time buckets observed so far.
func (m *TemporalModule) Buckets() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buckets
}

// AppendCommunicationTimeSeries appends the time spent in any MPI
// communication (point-to-point, waits, collectives) per bucket — the
// report's headline temporal map — to dst and returns the extended slice.
func (m *TemporalModule) AppendCommunicationTimeSeries(dst []float64) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	dst, out := grow(dst, m.buckets)
	for k, per := range m.perKind {
		if k := trace.Kind(k); !(k.IsP2P() || k.IsWait() || k.IsCollective()) {
			continue
		}
		for b, st := range per {
			out[b] += float64(st.TimeNs)
		}
	}
	return dst
}

// Merge folds another temporal module (same configured width) into this
// one.
func (m *TemporalModule) Merge(o *TemporalModule) {
	o.mu.Lock()
	snap, ob, os := o.perKind, o.buckets, o.shift
	for k, per := range snap {
		snap[k] = slices.Clone(per)
	}
	o.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mergeRows(&snap, ob, os)
}

// EnableTemporal adds a temporal-map module to the pipeline's state and
// returns it.
func (p *Pipeline) EnableTemporal(windowNs int64) (*TemporalModule, error) {
	if p.state.Temporal != nil {
		return nil, p.alreadyEnabled("temporal")
	}
	p.state.Temporal = NewTemporalModule(windowNs)
	p.state.opts.TemporalWindowNs = p.state.Temporal.base
	return p.state.Temporal, nil
}
