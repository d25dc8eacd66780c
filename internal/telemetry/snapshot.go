package telemetry

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Snapshot wire format (fixed-layout little-endian, the same discipline as
// the trace pack format so meta-events stream through the exact machinery
// they measure):
//
//	header (40 bytes):
//	  magic    uint32   "TEME"
//	  version  uint16
//	  count    uint16   number of metric records
//	  seq      uint64   snapshot sequence number at the source
//	  virtual  int64    DES virtual time, ns
//	  wall     int64    wall clock, unix ns
//	  source   int32    producing universe rank (-1 = host-side)
//	  reserved uint32
//	per metric record:
//	  nameLen  uint16, name bytes
//	  kind     uint8
//	  counter:   value int64
//	  gauge:     value int64, max int64
//	  histogram: count int64, sum int64, nbounds uint16,
//	             bounds nbounds×int64, counts (nbounds+1)×int64
const (
	// SnapshotMagic brands encoded snapshots ("TEME" little-endian).
	SnapshotMagic uint32 = 0x454d4554
	// SnapshotVersion is the current wire version.
	SnapshotVersion uint16 = 1
	// snapshotHeaderSize is the fixed header length in bytes.
	snapshotHeaderSize = 40
)

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func (c *Counter) encode(buf []byte) []byte {
	return appendI64(buf, c.Value())
}

func (g *Gauge) encode(buf []byte) []byte {
	buf = appendI64(buf, g.v.Load())
	return appendI64(buf, g.max.Load())
}

func (f *funcGauge) encode(buf []byte) []byte {
	v := f.fn()
	buf = appendI64(buf, v)
	return appendI64(buf, v)
}

func (h *Histogram) encode(buf []byte) []byte {
	buf = appendI64(buf, h.count.Load())
	buf = appendI64(buf, h.sum.Load())
	buf = appendU16(buf, uint16(len(h.bounds)))
	for _, b := range h.bounds {
		buf = appendI64(buf, b)
	}
	for i := range h.counts {
		buf = appendI64(buf, h.counts[i].Load())
	}
	return buf
}

// EncodeSnapshot appends a binary snapshot of every registered instrument
// to buf (pass buf[:0] of a recycled block for an allocation-free steady
// state) and returns the extended slice. The wall timestamp is taken here;
// the virtual timestamp and source rank are the caller's.
func (r *Registry) EncodeSnapshot(buf []byte, seq uint64, virtualNs int64, source int32) []byte {
	if r == nil {
		return buf
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	buf = appendU32(buf, SnapshotMagic)
	buf = appendU16(buf, SnapshotVersion)
	buf = appendU16(buf, uint16(len(r.order)))
	buf = appendU64(buf, seq)
	buf = appendI64(buf, virtualNs)
	buf = appendI64(buf, time.Now().UnixNano())
	buf = appendU32(buf, uint32(source))
	buf = appendU32(buf, 0)
	for _, m := range r.order {
		name := m.metricName()
		buf = appendU16(buf, uint16(len(name)))
		buf = append(buf, name...)
		buf = append(buf, byte(m.kind()))
		buf = m.encode(buf)
	}
	return buf
}

// MetricSample is one instrument's state inside a snapshot. Value holds
// the counter sum, the gauge's last value, or the histogram's observation
// count; Max, Sum, Bounds and Counts are kind-specific.
type MetricSample struct {
	Name   string
	Kind   Kind
	Value  int64
	Max    int64   // gauges: high-water mark
	Sum    int64   // histograms: sum of observations
	Bounds []int64 // histograms: bucket upper bounds
	Counts []int64 // histograms: per-bucket counts (len(Bounds)+1)
}

// Snapshot is one decoded meta-event: the full registry state at one
// (virtual, wall) instant.
type Snapshot struct {
	Seq       uint64
	VirtualNs int64
	WallNs    int64
	Source    int32
	Metrics   []MetricSample
}

// decodeErr builds a uniform decode error.
func decodeErr(what string) error { return fmt.Errorf("telemetry: truncated snapshot (%s)", what) }

// DecodeSnapshot parses an encoded snapshot. All referenced storage is
// copied, so the input buffer may be recycled immediately.
func DecodeSnapshot(buf []byte) (*Snapshot, error) {
	if len(buf) < snapshotHeaderSize {
		return nil, decodeErr("header")
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != SnapshotMagic {
		return nil, fmt.Errorf("telemetry: bad snapshot magic %#x", le.Uint32(buf[0:]))
	}
	if v := le.Uint16(buf[4:]); v != SnapshotVersion {
		return nil, fmt.Errorf("telemetry: unsupported snapshot version %d", v)
	}
	count := int(le.Uint16(buf[6:]))
	s := &Snapshot{
		Seq:       le.Uint64(buf[8:]),
		VirtualNs: int64(le.Uint64(buf[16:])),
		WallNs:    int64(le.Uint64(buf[24:])),
		Source:    int32(le.Uint32(buf[32:])),
		Metrics:   make([]MetricSample, 0, count),
	}
	off := snapshotHeaderSize
	need := func(n int) bool { return off+n <= len(buf) }
	readI64 := func() int64 { v := int64(le.Uint64(buf[off:])); off += 8; return v }
	for i := 0; i < count; i++ {
		if !need(2) {
			return nil, decodeErr("name length")
		}
		nameLen := int(le.Uint16(buf[off:]))
		off += 2
		if !need(nameLen + 1) {
			return nil, decodeErr("name")
		}
		m := MetricSample{Name: string(buf[off : off+nameLen])}
		off += nameLen
		m.Kind = Kind(buf[off])
		off++
		switch m.Kind {
		case KindCounter:
			if !need(8) {
				return nil, decodeErr("counter value")
			}
			m.Value = readI64()
		case KindGauge:
			if !need(16) {
				return nil, decodeErr("gauge value")
			}
			m.Value = readI64()
			m.Max = readI64()
		case KindHistogram:
			if !need(18) {
				return nil, decodeErr("histogram header")
			}
			m.Value = readI64()
			m.Sum = readI64()
			nb := int(le.Uint16(buf[off:]))
			off += 2
			if !need(8 * (2*nb + 1)) {
				return nil, decodeErr("histogram buckets")
			}
			m.Bounds = make([]int64, nb)
			for j := range m.Bounds {
				m.Bounds[j] = readI64()
			}
			m.Counts = make([]int64, nb+1)
			for j := range m.Counts {
				m.Counts[j] = readI64()
			}
		default:
			return nil, fmt.Errorf("telemetry: unknown instrument kind %d", m.Kind)
		}
		s.Metrics = append(s.Metrics, m)
	}
	return s, nil
}

// Point is one sample of one series.
type Point struct {
	// VirtualNs and WallNs are the snapshot's dual timestamps.
	VirtualNs int64
	WallNs    int64
	// Value is the series value at that instant.
	Value float64
}

// Accumulator folds decoded snapshots into per-series time lines. Each
// metric contributes one or more series: a counter contributes its name; a
// gauge contributes "name" (value) and "name.max" (high-water); a
// histogram contributes "name.count" and "name.mean". The zero value is
// ready to use; all methods are safe for concurrent callers (the analysis
// side runs on the blackboard's worker pool).
type Accumulator struct {
	mu        sync.Mutex
	order     []string
	series    map[string][]Point
	snapshots int
}

// AddSnapshot folds one decoded snapshot in.
func (a *Accumulator) AddSnapshot(s *Snapshot) {
	if s == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.snapshots++
	add := func(name string, v float64) {
		// Keep each series ordered by virtual time: snapshots travel
		// through the blackboard's concurrent worker pool, so two posted
		// close together can arrive swapped. Ties keep arrival order.
		pts, ok := a.series[name]
		if !ok {
			if a.series == nil {
				a.series = make(map[string][]Point)
			}
			a.order = append(a.order, name)
		}
		p := Point{VirtualNs: s.VirtualNs, WallNs: s.WallNs, Value: v}
		i := len(pts)
		for i > 0 && pts[i-1].VirtualNs > p.VirtualNs {
			i--
		}
		pts = append(pts, Point{})
		copy(pts[i+1:], pts[i:])
		pts[i] = p
		a.series[name] = pts
	}
	for _, m := range s.Metrics {
		switch m.Kind {
		case KindCounter:
			add(m.Name, float64(m.Value))
		case KindGauge:
			add(m.Name, float64(m.Value))
			add(m.Name+".max", float64(m.Max))
		case KindHistogram:
			add(m.Name+".count", float64(m.Value))
			mean := 0.0
			if m.Value > 0 {
				mean = float64(m.Sum) / float64(m.Value)
			}
			add(m.Name+".mean", mean)
		}
	}
}

// Snapshots reports how many snapshots have been folded in.
func (a *Accumulator) Snapshots() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.snapshots
}

// Names returns the series names in first-seen order.
func (a *Accumulator) Names() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.order...)
}

// Points copies one series' samples (nil for unknown names).
func (a *Accumulator) Points(name string) []Point {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Point(nil), a.series[name]...)
}

// MetricSummary condenses one series for the JSON health summary.
type MetricSummary struct {
	Name    string  `json:"name"`
	Samples int     `json:"samples"`
	Last    float64 `json:"last"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
}

// Summary is the engine-health digest emitted by the -telemetry flags.
type Summary struct {
	Snapshots int             `json:"snapshots"`
	Metrics   []MetricSummary `json:"metrics"`
}

// Summary digests every series (sorted by name) into last/max/mean.
func (a *Accumulator) Summary() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := Summary{Snapshots: a.snapshots}
	names := append([]string(nil), a.order...)
	sort.Strings(names)
	for _, name := range names {
		pts := a.series[name]
		ms := MetricSummary{Name: name, Samples: len(pts)}
		var sum float64
		for _, p := range pts {
			if p.Value > ms.Max {
				ms.Max = p.Value
			}
			sum += p.Value
		}
		if n := len(pts); n > 0 {
			ms.Last = pts[n-1].Value
			ms.Mean = sum / float64(n)
		}
		out.Metrics = append(out.Metrics, ms)
	}
	return out
}
