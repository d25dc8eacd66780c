package analysis

import (
	"math"
	"math/bits"
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

// appendNonZeroKeys appends to keys, unordered, the keys of m whose value
// is not the zero value: what an encoder writes of a map whose entries a
// reset zeroes in place.
func appendNonZeroKeys[K comparable, V comparable](keys []K, m map[K]*V) []K {
	var zero V
	for k, v := range m {
		if *v != zero {
			keys = append(keys, k)
		}
	}
	return keys
}

// --- Profiler module ---

// ProfilerModule reduces an application's events to per-call-type
// statistics, application-wide and per rank (the "MPI profiler" KS of
// Figure 4).
type ProfilerModule struct {
	mu     sync.Mutex
	events int64
	total  [kindSlots]Stat
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

// KindStat is one call kind's application-wide statistics.
type KindStat struct {
	Kind trace.Kind
	Stat
}

// AppendStats appends every call kind observed, ascending, with its
// statistics to dst and returns the extended slice: one locked pass, so
// the rows are one consistent reading of the module.
func (m *ProfilerModule) AppendStats(dst []KindStat) []KindStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, st := range m.total {
		if st != (Stat{}) {
			dst = append(dst, KindStat{trace.Kind(k), st})
		}
	}
	return dst
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
//
// Beside the cells it keeps a touched index: one bit per cellsPerBit
// consecutive cells, set before a cell of the group first becomes non-zero
// and cleared only by whoever zeroes the group again. Every writer keeps
// the invariant "a set bit covers every non-zero cell" (and a non-zero
// cell has hits: the fold counts one per event, the decoder refuses a cell
// without), so the encoder and the merges walk what was written since the
// last reset, in ascending cell order, and skip the rest of the matrix
// without reading it. A query reads the matrix the same way, through
// TopologyModule.AppendEdges: nothing reads it densely.
type Matrix struct {
	// N is the application's rank count.
	N int
	// cells are the row-major [src*N+dst] accumulators, a cell's three
	// weights side by side: a write costs one cache line, not three.
	cells []Stat
	// touched is the index, bit g for cells [g*cellsPerBit, (g+1)*cellsPerBit).
	touched []uint64
}

// cellsPerBit is the touched index's granularity: three cache lines of
// cells a bit, which makes the index of a 256-rank matrix 1 KB.
const cellsPerBit = 8

// NewMatrix creates an N×N matrix. The cells are allocated on the first
// write, not here: a matrix that never sees a P2P event — a drained
// replica, a decoded empty delta — stays O(1), which matters once the
// wire can hand the decoder an app size it never folds events for.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n}
}

// ensure allocates the cells and their index before the first write.
func (m *Matrix) ensure() {
	if m.cells == nil {
		n := m.N * m.N
		m.cells = make([]Stat, n)
		m.touched = make([]uint64, (n+64*cellsPerBit-1)/(64*cellsPerBit))
	}
}

// cell returns cell i for writing: allocated, and indexed if it is about
// to become non-zero.
func (m *Matrix) cell(i int) *Stat {
	m.ensure()
	c := &m.cells[i]
	if c.Hits == 0 {
		g := i / cellsPerBit
		m.touched[g/64] |= 1 << (g % 64)
	}
	return c
}

// walk calls fn, ascending, with every cell that has hits. With reset it
// zeroes each cell behind fn and clears the index behind itself.
func (m *Matrix) walk(reset bool, fn func(i int, st Stat)) {
	for w, word := range m.touched {
		for ; word != 0; word &= word - 1 {
			lo := (w*64 + bits.TrailingZeros64(word)) * cellsPerBit
			group := m.cells[lo:min(lo+cellsPerBit, len(m.cells))]
			for j := range group {
				if group[j].Hits == 0 {
					continue
				}
				fn(lo+j, group[j])
				if reset {
					group[j] = Stat{}
				}
			}
		}
		if reset {
			m.touched[w] = 0
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
	m.mat.cell(src*m.mat.N + dst).add(ev)
}

// mergeReset folds the cells o wrote into m and zeroes them in place.
// Allocation free once both sides are warm. The caller must own o
// exclusively.
func (m *TopologyModule) mergeReset(o *TopologyModule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// m's cells are allocated on o's first cell, not before: a warm but
	// empty o (a replica's idle window) must not materialize them.
	o.mat.walk(true, func(i int, st Stat) { m.mat.cell(i).merge(st) })
}

// Edge is one written src→dst cell of the communication matrix.
type Edge struct {
	Src, Dst int
	Stat
}

// Ranks returns the application's rank count, the matrix's side.
func (m *TopologyModule) Ranks() int { return m.mat.N }

// AppendEdges appends the written cells to buf, ascending by (src, dst),
// and returns the extended buffer. The module lock covers that
// O(written cells) copy and nothing else: it is the one read of the
// matrix a query makes.
func (m *TopologyModule) AppendEdges(buf []Edge) []Edge {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.mat.N
	m.mat.walk(false, func(i int, st Stat) { buf = append(buf, Edge{Src: i / n, Dst: i % n, Stat: st}) })
	return buf
}

// Merge folds another topology module into this one. Only one side is
// locked at a time, so o's written cells are copied out first — its cells,
// not its ranks².
func (m *TopologyModule) Merge(o *TopologyModule) {
	type cell struct {
		i  int
		st Stat
	}
	var cells []cell
	o.mu.Lock()
	o.mat.walk(false, func(i int, st Stat) { cells = append(cells, cell{i, st}) })
	o.mu.Unlock()
	if len(cells) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range cells {
		m.mat.cell(c.i).merge(c.st)
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

// Value returns s weighted by w (0 for an unknown metric).
func (s Stat) Value(w Metric) float64 {
	switch w {
	case MetricHits:
		return float64(s.Hits)
	case MetricBytes:
		return float64(s.Bytes)
	case MetricTime:
		return float64(s.TimeNs)
	}
	return 0
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

// AppendMap appends the per-rank values of one kind under one metric to
// dst (application size of them; all zeros if the kind never occurred)
// and returns the extended slice.
func (m *DensityModule) AppendMap(dst []float64, k trace.Kind, metric Metric) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	dst, out := grow(dst, m.size)
	for r, st := range m.perKind[k] {
		out[r] = st.Value(metric)
	}
	return dst
}

// AppendCollectiveTimeMap sums the time metric over every collective
// kind — the paper's "time spent in collectives" map (Figure 18c).
func (m *DensityModule) AppendCollectiveTimeMap(dst []float64) []float64 {
	return m.appendSumMap(dst, trace.Kind.IsCollective, MetricTime)
}

// AppendWaitTimeMap sums the time metric over MPI_Wait/MPI_Waitall — the
// paper's wait-time map (Figure 18d).
func (m *DensityModule) AppendWaitTimeMap(dst []float64) []float64 {
	return m.appendSumMap(dst, trace.Kind.IsWait, MetricTime)
}

// AppendP2PSizeMap sums outgoing point-to-point bytes per rank — the
// paper's total point-to-point size map (Figure 18e).
func (m *DensityModule) AppendP2PSizeMap(dst []float64) []float64 {
	return m.appendSumMap(dst, trace.Kind.IsOutgoingP2P, MetricBytes)
}

// appendSumMap appends metric summed per rank over the kinds pick
// selects, in one locked pass.
func (m *DensityModule) appendSumMap(dst []float64, pick func(trace.Kind) bool, metric Metric) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	dst, out := grow(dst, m.size)
	for k, per := range m.perKind {
		if per == nil || !pick(trace.Kind(k)) {
			continue
		}
		for r := range per {
			out[r] += per[r].Value(metric)
		}
	}
	return dst
}

// grow extends dst by n zeros and returns it with the new tail. A nil dst
// comes back non-nil: an empty map is a map of no ranks, not no map.
func grow(dst []float64, n int) (ext, tail []float64) {
	if dst == nil {
		dst = make([]float64, 0, n)
	}
	ext = append(dst, make([]float64, n)...)
	return ext, ext[len(dst):]
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
