package analysis

import (
	"math"
	"slices"
	"sync"

	"repro/internal/trace"
)

// Stat is a hits/bytes/time accumulator.
type Stat struct {
	// Hits counts events.
	Hits int64
	// Bytes sums payload sizes.
	Bytes int64
	// TimeNs sums call durations.
	TimeNs int64
}

func (s *Stat) add(ev *trace.Event) {
	s.Hits++
	s.Bytes += ev.Size
	s.TimeNs += ev.Duration()
}

// merge folds other into s.
func (s *Stat) merge(o Stat) {
	s.Hits += o.Hits
	s.Bytes += o.Bytes
	s.TimeNs += o.TimeNs
}

// kindSlots is the size of a table indexed by a trace.Kind. A Kind is a
// uint8, so 256 slots cover every value a pack dictionary can carry —
// kinds this build has no name for are counted and reported like any
// other — and indexing by the kind itself needs neither a hash nor a
// bounds check. Ascending index order is the canonical kind order of the
// partial encoding.
const kindSlots = math.MaxUint8 + 1

// entry returns m[k], inserting a zero value first when the key is new.
func entry[K comparable, V any](m map[K]*V, k K) *V {
	v := m[k]
	if v == nil {
		v = new(V)
		m[k] = v
	}
	return v
}

// nonZeroKeys returns, unordered, the keys of m whose value is not the
// zero value: what an encoder writes of a map whose entries a reset
// zeroes in place.
func nonZeroKeys[K comparable, V comparable](m map[K]*V) []K {
	var zero V
	keys := make([]K, 0, len(m))
	for k, v := range m {
		if *v != zero {
			keys = append(keys, k)
		}
	}
	return keys
}

// kindsWhere returns, ascending, the kinds whose table slot is in use.
func kindsWhere(used func(k int) bool) []trace.Kind {
	out := make([]trace.Kind, 0, trace.KindCount)
	for k := 0; k < kindSlots; k++ {
		if used(k) {
			out = append(out, trace.Kind(k))
		}
	}
	return out
}

// --- Profiler module ---

// ProfilerModule reduces an application's events to per-call-type
// statistics, application-wide and per rank (the "MPI profiler" KS of
// Figure 4).
type ProfilerModule struct {
	mu     sync.Mutex
	size   int
	events int64
	total  [kindSlots]Stat
}

// NewProfilerModule creates a profiler for an application of the given
// rank count.
func NewProfilerModule(size int) *ProfilerModule {
	return &ProfilerModule{size: size}
}

// Add folds one event in.
func (m *ProfilerModule) Add(ev *trace.Event) {
	m.mu.Lock()
	m.fold(ev)
	m.mu.Unlock()
}

// fold is Add for a caller that already owns the module: a replica's
// single owner, or a pack fold holding m.mu for the whole pack (see
// Pipeline.FoldPack). Every module's fold has this contract.
func (m *ProfilerModule) fold(ev *trace.Event) {
	m.events++
	m.total[ev.Kind].add(ev)
}

// mergeReset folds o into m and resets o to empty in place, so a
// steady-state epoch merge allocates nothing. The caller must own o
// exclusively (it is a paused replica).
func (m *ProfilerModule) mergeReset(o *ProfilerModule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events += o.events
	o.events = 0
	for k := range o.total {
		m.total[k].merge(o.total[k])
	}
	o.total = [kindSlots]Stat{}
}

// Events returns the number of events profiled.
func (m *ProfilerModule) Events() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.events
}

// Stat returns the application-wide statistics for one call kind (zero
// value if the kind never occurred).
func (m *ProfilerModule) Stat(k trace.Kind) Stat {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total[k]
}

// Kinds returns the call kinds observed, ascending.
func (m *ProfilerModule) Kinds() []trace.Kind {
	m.mu.Lock()
	defer m.mu.Unlock()
	return kindsWhere(func(k int) bool { return m.total[k] != Stat{} })
}

// Merge folds another profiler (e.g. from a different analyzer rank) into
// this one.
func (m *ProfilerModule) Merge(o *ProfilerModule) {
	o.mu.Lock()
	snapshot, ev := o.total, o.events
	o.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events += ev
	for k := range snapshot {
		m.total[k].merge(snapshot[k])
	}
}

// --- Topology module ---

// Matrix is a dense rank×rank communication matrix weighted in hits, bytes
// and time (the three weightings of the paper's topological module).
type Matrix struct {
	// N is the application's rank count.
	N int
	// Hits, Bytes and TimeNs are row-major [src*N+dst] accumulators.
	Hits   []int64
	Bytes  []int64
	TimeNs []int64
}

// NewMatrix creates an N×N matrix. The cell arrays are allocated on the
// first write, not here: a matrix that never sees a P2P event — an empty
// window partial, a drained replica, a decoded empty delta — stays O(1),
// which matters once every per-window partial carries one and once the
// wire can hand the decoder an app size it never folds events for.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n}
}

// ensure allocates the cell arrays before the first write.
func (m *Matrix) ensure() {
	if m.Hits == nil {
		m.Hits = make([]int64, m.N*m.N)
		m.Bytes = make([]int64, m.N*m.N)
		m.TimeNs = make([]int64, m.N*m.N)
	}
}

// At returns (hits, bytes, timeNs) for the src→dst cell.
func (m *Matrix) At(src, dst int) (int64, int64, int64) {
	if m.Hits == nil {
		return 0, 0, 0
	}
	i := src*m.N + dst
	return m.Hits[i], m.Bytes[i], m.TimeNs[i]
}

// Degree returns the number of distinct peers src communicates with.
func (m *Matrix) Degree(src int) int {
	if m.Hits == nil {
		return 0
	}
	d := 0
	for dst := 0; dst < m.N; dst++ {
		if m.Hits[src*m.N+dst] > 0 {
			d++
		}
	}
	return d
}

// TotalBytes sums the matrix's byte weights.
func (m *Matrix) TotalBytes() int64 {
	var t int64
	for _, b := range m.Bytes {
		t += b
	}
	return t
}

// Edges calls fn for every non-empty src→dst cell.
func (m *Matrix) Edges(fn func(src, dst int, hits, bytes, timeNs int64)) {
	if m.Hits == nil {
		return
	}
	for s := 0; s < m.N; s++ {
		for d := 0; d < m.N; d++ {
			i := s*m.N + d
			if m.Hits[i] > 0 {
				fn(s, d, m.Hits[i], m.Bytes[i], m.TimeNs[i])
			}
		}
	}
}

// TopologyModule accumulates the point-to-point communication matrix from
// outgoing p2p events.
type TopologyModule struct {
	mu  sync.Mutex
	mat *Matrix
}

// NewTopologyModule creates a topology module for an application of the
// given rank count.
func NewTopologyModule(size int) *TopologyModule {
	return &TopologyModule{mat: NewMatrix(size)}
}

// Add folds one event in.
func (m *TopologyModule) Add(ev *trace.Event) {
	m.mu.Lock()
	m.fold(ev)
	m.mu.Unlock()
}

// fold counts outgoing point-to-point events with a valid peer (each
// transfer is counted once, at its sender).
func (m *TopologyModule) fold(ev *trace.Event) {
	if !ev.Kind.IsOutgoingP2P() {
		return
	}
	src, dst := int(ev.Rank), int(ev.Peer)
	if src < 0 || dst < 0 || src >= m.mat.N || dst >= m.mat.N {
		return
	}
	m.mat.ensure()
	i := src*m.mat.N + dst
	m.mat.Hits[i]++
	m.mat.Bytes[i] += ev.Size
	m.mat.TimeNs[i] += ev.Duration()
}

// mergeReset folds o into m and zeroes o's matrix in place. Allocation
// free once both sides are warm. The caller must own o exclusively.
func (m *TopologyModule) mergeReset(o *TopologyModule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if o.mat.Hits == nil {
		return
	}
	m.mat.ensure()
	for i := range o.mat.Hits {
		m.mat.Hits[i] += o.mat.Hits[i]
		m.mat.Bytes[i] += o.mat.Bytes[i]
		m.mat.TimeNs[i] += o.mat.TimeNs[i]
		o.mat.Hits[i], o.mat.Bytes[i], o.mat.TimeNs[i] = 0, 0, 0
	}
}

// release drops the cell arrays of a matrix that holds nothing any more
// (the next write re-allocates them).
func (m *TopologyModule) release() {
	m.mu.Lock()
	if m.mat.Hits != nil {
		m.mat = NewMatrix(m.mat.N)
	}
	m.mu.Unlock()
}

// Matrix returns a snapshot copy of the accumulated matrix.
func (m *TopologyModule) Matrix() *Matrix {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMatrix(m.mat.N)
	if m.mat.Hits == nil {
		return out
	}
	out.ensure()
	copy(out.Hits, m.mat.Hits)
	copy(out.Bytes, m.mat.Bytes)
	copy(out.TimeNs, m.mat.TimeNs)
	return out
}

// Merge folds another topology module into this one.
func (m *TopologyModule) Merge(o *TopologyModule) {
	snap := o.Matrix()
	if snap.Hits == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mat.ensure()
	for i := range snap.Hits {
		m.mat.Hits[i] += snap.Hits[i]
		m.mat.Bytes[i] += snap.Bytes[i]
		m.mat.TimeNs[i] += snap.TimeNs[i]
	}
}

// --- Density module ---

// Metric selects the weighting of a density map.
type Metric int

// Density-map metrics (the paper renders hits, total size and time for
// every MPI and POSIX call).
const (
	MetricHits Metric = iota
	MetricBytes
	MetricTime
)

// String returns the metric's report label.
func (w Metric) String() string {
	switch w {
	case MetricHits:
		return "hits"
	case MetricBytes:
		return "total size"
	case MetricTime:
		return "time"
	default:
		return "unknown"
	}
}

// DensityModule accumulates per-rank, per-call-kind statistics: the source
// data for the paper's density maps (Figure 18).
type DensityModule struct {
	mu   sync.Mutex
	size int
	// perKind holds one per-rank row per kind, allocated when the kind
	// first occurs.
	perKind [kindSlots][]Stat
}

// NewDensityModule creates a density module for an application of the
// given rank count.
func NewDensityModule(size int) *DensityModule {
	return &DensityModule{size: size}
}

// Add folds one event in.
func (m *DensityModule) Add(ev *trace.Event) {
	m.mu.Lock()
	m.fold(ev)
	m.mu.Unlock()
}

func (m *DensityModule) fold(ev *trace.Event) {
	r := int(ev.Rank)
	if r < 0 || r >= m.size {
		return
	}
	m.row(ev.Kind)[r].add(ev)
}

// row returns kind k's per-rank row, allocating it on first use.
func (m *DensityModule) row(k trace.Kind) []Stat {
	per := m.perKind[k]
	if per == nil {
		per = make([]Stat, m.size)
		m.perKind[k] = per
	}
	return per
}

// mergeRows adds every row of src into m. Called with m.mu held.
func (m *DensityModule) mergeRows(src *[kindSlots][]Stat) {
	for k, per := range src {
		if per == nil {
			continue
		}
		dst := m.row(trace.Kind(k))
		for r := range per {
			if r < len(dst) {
				dst[r].merge(per[r])
			}
		}
	}
}

// mergeReset folds o into m and zeroes o's rows in place, keeping them
// for reuse. The caller must own o exclusively; allocates only the first
// time m sees a kind.
func (m *DensityModule) mergeReset(o *DensityModule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mergeRows(&o.perKind)
	for _, per := range o.perKind {
		clear(per)
	}
}

// Size returns the application's rank count.
func (m *DensityModule) Size() int { return m.size }

// Kinds returns the call kinds observed, ascending.
func (m *DensityModule) Kinds() []trace.Kind {
	m.mu.Lock()
	defer m.mu.Unlock()
	return kindsWhere(func(k int) bool { return m.perKind[k] != nil })
}

// Map returns the per-rank values of one kind under one metric (length =
// application size; all zeros if the kind never occurred).
func (m *DensityModule) Map(k trace.Kind, metric Metric) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]float64, m.size)
	per := m.perKind[k]
	if per == nil {
		return out
	}
	for r := range per {
		switch metric {
		case MetricHits:
			out[r] = float64(per[r].Hits)
		case MetricBytes:
			out[r] = float64(per[r].Bytes)
		case MetricTime:
			out[r] = float64(per[r].TimeNs)
		}
	}
	return out
}

// CollectiveTimeMap sums the time metric over every collective kind — the
// paper's "time spent in collectives" map (Figure 18c).
func (m *DensityModule) CollectiveTimeMap() []float64 {
	out := make([]float64, m.size)
	for _, k := range m.Kinds() {
		if !k.IsCollective() {
			continue
		}
		for r, v := range m.Map(k, MetricTime) {
			out[r] += v
		}
	}
	return out
}

// WaitTimeMap sums the time metric over MPI_Wait/MPI_Waitall — the paper's
// wait-time map (Figure 18d).
func (m *DensityModule) WaitTimeMap() []float64 {
	out := make([]float64, m.size)
	for _, k := range m.Kinds() {
		if !k.IsWait() {
			continue
		}
		for r, v := range m.Map(k, MetricTime) {
			out[r] += v
		}
	}
	return out
}

// P2PSizeMap sums outgoing point-to-point bytes per rank — the paper's
// total point-to-point size map (Figure 18e).
func (m *DensityModule) P2PSizeMap() []float64 {
	out := make([]float64, m.size)
	for _, k := range m.Kinds() {
		if !k.IsOutgoingP2P() {
			continue
		}
		for r, v := range m.Map(k, MetricBytes) {
			out[r] += v
		}
	}
	return out
}

// Merge folds another density module into this one.
func (m *DensityModule) Merge(o *DensityModule) {
	o.mu.Lock()
	snap := o.perKind
	for k, per := range snap {
		snap[k] = slices.Clone(per)
	}
	o.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mergeRows(&snap)
}
