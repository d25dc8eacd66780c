// Package telemetry is the coupling stack's self-observation subsystem:
// the engine meta-profiles itself through the same mechanism it offers to
// applications. A Registry holds allocation-free counters, gauges and
// fixed-bucket histograms; a Sampler periodically packs the registry
// into fixed-layout binary meta-events carrying dual timestamps (DES
// virtual time and wall clock) and writes them to a dedicated VMPI stream
// channel, where the analysis side unpacks them into per-component time
// series — the paper's "performance data as events over the interconnect"
// thesis, applied to the measurement infrastructure itself.
//
// Every handle in this package is nil-safe: methods on a nil *Registry,
// *Counter, *Gauge, *Histogram, *Sampler or component bundle are no-ops
// that perform zero allocations, so disabled telemetry costs one nil check
// per instrumentation point and nothing else. Updates use atomics
// throughout, because instruments are written from both simulation context
// (streams, NIC model) and real OS threads (blackboard workers) while a
// sampler reads them live.
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Kind discriminates the instrument types in snapshots.
type Kind uint8

// Instrument kinds.
const (
	// KindCounter is a monotonically accumulating sum.
	KindCounter Kind = iota
	// KindGauge is a last-value instrument with a high-water mark.
	KindGauge
	// KindHistogram is a fixed-bucket distribution with count and sum.
	KindHistogram
)

// String names a kind for reports.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Counter is an allocation-free accumulator.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add accumulates d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the accumulated sum.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value instrument that also tracks its high-water mark,
// so a snapshot taken at a quiet instant still reveals the peak between
// samples (e.g. stream credits in flight).
type Gauge struct {
	name string
	v    atomic.Int64
	max  atomic.Int64
}

// Set records the current value and raises the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Histogram is a fixed-bucket distribution: bucket i counts observations
// v <= bounds[i], the last bucket is unbounded. No maps, no growth — an
// Observe is a bounded scan plus three atomic adds.
type Histogram struct {
	name   string
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// LatencyBounds is the default bucket layout for latency histograms, in
// nanoseconds: 1 µs, 10 µs, 100 µs, 1 ms, 10 ms, 100 ms, 1 s.
var LatencyBounds = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// metric is the registry's common view of one instrument.
type metric interface {
	metricName() string
	kind() Kind
	// encode appends the instrument's snapshot record body (everything
	// after name and kind) to buf.
	encode(buf []byte) []byte
}

func (c *Counter) metricName() string { return c.name }
func (c *Counter) kind() Kind         { return KindCounter }

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) kind() Kind         { return KindGauge }

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) kind() Kind         { return KindHistogram }

// funcGauge reads an external source at snapshot time (e.g. the global
// vmpi block-pool counters, which cannot live in a per-run registry).
type funcGauge struct {
	name string
	fn   func() int64
}

func (f *funcGauge) metricName() string { return f.name }
func (f *funcGauge) kind() Kind         { return KindGauge }

// Registry is a named set of instruments. The zero value is not usable;
// create with NewRegistry. A nil *Registry is the disabled state: every
// lookup returns a nil instrument whose methods no-op.
type Registry struct {
	mu     sync.Mutex
	order  []metric
	byName map[string]metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// lookup returns the registered metric under name, or registers the one
// built by mk. A name registered under a different instrument kind panics:
// that is a wiring bug, not a runtime condition.
func (r *Registry) lookup(name string, k Kind, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind() != k {
			panic(fmt.Sprintf("telemetry: %q already registered as a %s", name, m.kind()))
		}
		return m
	}
	m := mk()
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns (registering on first use) the named counter. Nil
// registry → nil counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindCounter, func() metric { return &Counter{name: name} }).(*Counter)
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindGauge, func() metric { return &Gauge{name: name} }).(*Gauge)
}

// Histogram returns (registering on first use) the named histogram with
// the given ascending bucket upper bounds (the last bucket is unbounded).
// The bounds of an already-registered histogram win.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindHistogram, func() metric {
		b := append([]int64(nil), bounds...)
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
			}
		}
		return &Histogram{name: name, bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	}).(*Histogram)
}

// GaugeFunc registers a callback-backed gauge sampled at snapshot time.
// Use it to surface process-global state (like the shared pack pool)
// that cannot be written through a per-run handle.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.lookup(name, KindGauge, func() metric { return &funcGauge{name: name, fn: fn} })
}
