package telemetry

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/des"
)

// TestCounterSharded: concurrent writers lose no update, and a second
// lookup returns the same counter. (The name is from when a counter was
// eight padded shards; it is one atomic now.)
func TestCounterSharded(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("counter = %d, want 16000", got)
	}
	if reg.Counter("c") != c {
		t.Fatal("second lookup returned a different counter")
	}
}

func TestGaugeHighWater(t *testing.T) {
	g := NewRegistry().Gauge("g")
	g.Set(5)
	g.Set(42)
	g.Set(3)
	if g.Value() != 3 || g.Max() != 42 {
		t.Fatalf("gauge value=%d max=%d, want 3/42", g.Value(), g.Max())
	}
	g.Add(-10)
	if g.Value() != -7 || g.Max() != 42 {
		t.Fatalf("after Add: value=%d max=%d, want -7/42", g.Value(), g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("h", []int64{10, 100})
	for _, v := range []int64{5, 10, 11, 100, 1000} {
		h.Observe(v)
	}
	want := []int64{2, 2, 1}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 5 || h.Sum() != 1126 {
		t.Fatalf("count=%d sum=%d, want 5/1126", h.Count(), h.Sum())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering gauge over counter name")
		}
	}()
	reg.Gauge("x")
}

func TestNilInstrumentsNoOp(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", LatencyBounds)
	c.Add(1)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments should read zero")
	}
	reg.GaugeFunc("f", func() int64 { return 1 })
	if reg.Len() != 0 {
		t.Fatal("nil registry should report zero instruments")
	}
	if buf := reg.EncodeSnapshot(nil, 0, 0, 0); buf != nil {
		t.Fatal("nil registry EncodeSnapshot should return input")
	}
	// Nil component bundles and sampler.
	NewStreamMetrics(nil).OnWrite(1)
	NewNetMetrics(nil).OnTransfer(1, 1)
	NewSinkMetrics(nil).OnFlush(1, 1)
	NewBoardMetrics(nil).OnJob()
	if NewBoardMetrics(nil).KSLatency("x") != nil {
		t.Fatal("nil board metrics should yield nil histogram")
	}
	s := NewSampler(nil, nil, time.Millisecond, 0)
	if s != nil {
		t.Fatal("nil registry should yield nil sampler")
	}
	if err := s.Poll(0); err != nil {
		t.Fatal("nil sampler Poll should return nil")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Add(7)
	g := reg.Gauge("b")
	g.Set(9)
	g.Set(2)
	h := reg.Histogram("lat", []int64{10, 100})
	h.Observe(5)
	h.Observe(500)
	reg.GaugeFunc("pool", func() int64 { return 11 })

	buf := reg.EncodeSnapshot(nil, 3, 12345, 2)
	s, err := DecodeSnapshot(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if s.Seq != 3 || s.VirtualNs != 12345 || s.Source != 2 {
		t.Fatalf("header = %+v", s)
	}
	if s.WallNs == 0 {
		t.Fatal("wall timestamp missing")
	}
	if len(s.Metrics) != 4 {
		t.Fatalf("metrics = %d, want 4", len(s.Metrics))
	}
	byName := map[string]MetricSample{}
	for _, m := range s.Metrics {
		byName[m.Name] = m
	}
	if m := byName["a"]; m.Kind != KindCounter || m.Value != 7 {
		t.Fatalf("counter a = %+v", m)
	}
	if m := byName["b"]; m.Kind != KindGauge || m.Value != 2 || m.Max != 9 {
		t.Fatalf("gauge b = %+v", m)
	}
	if m := byName["pool"]; m.Kind != KindGauge || m.Value != 11 {
		t.Fatalf("func gauge pool = %+v", m)
	}
	m := byName["lat"]
	if m.Kind != KindHistogram || m.Value != 2 || m.Sum != 505 {
		t.Fatalf("histogram lat = %+v", m)
	}
	if len(m.Bounds) != 2 || len(m.Counts) != 3 || m.Counts[0] != 1 || m.Counts[2] != 1 {
		t.Fatalf("histogram buckets = %+v", m)
	}

	// Host-side Snapshot agrees with the wire form.
	direct := reg.Snapshot(3, 12345, 2)
	if len(direct.Metrics) != len(s.Metrics) {
		t.Fatalf("direct snapshot metrics = %d", len(direct.Metrics))
	}
}

func TestDecodeSnapshotTruncated(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Add(1)
	reg.Histogram("h", []int64{1, 2}).Observe(1)
	buf := reg.EncodeSnapshot(nil, 0, 0, 0)
	if _, err := DecodeSnapshot(buf); err != nil {
		t.Fatalf("full buffer should decode: %v", err)
	}
	for n := 0; n < len(buf); n++ {
		if _, err := DecodeSnapshot(buf[:n]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", n, len(buf))
		}
	}
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xff
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Fatal("corrupt magic decoded without error")
	}
}

func TestAccumulatorSeries(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", []int64{10})

	var acc Accumulator
	for i := 1; i <= 3; i++ {
		c.Add(int64(i))
		g.Set(int64(10 * i))
		h.Observe(int64(i))
		if err := acc.AddEncoded(reg.EncodeSnapshot(nil, uint64(i), int64(i*100), 0)); err != nil {
			t.Fatalf("AddEncoded: %v", err)
		}
	}
	if acc.Snapshots() != 3 {
		t.Fatalf("snapshots = %d, want 3", acc.Snapshots())
	}
	if vs := values(&acc, "c"); len(vs) != 3 || vs[2] != 6 {
		t.Fatalf("counter series = %v", vs)
	}
	if vs := values(&acc, "g.max"); len(vs) != 3 || vs[2] != 30 {
		t.Fatalf("gauge max series = %v", vs)
	}
	if vs := values(&acc, "h.count"); vs[2] != 3 {
		t.Fatalf("histogram count series = %v", vs)
	}
	if vs := values(&acc, "h.mean"); vs[2] != 2 {
		t.Fatalf("histogram mean series = %v", vs)
	}
	pts := acc.Points("c")
	if pts[1].VirtualNs != 200 {
		t.Fatalf("virtual timestamps = %+v", pts)
	}
	if values(&acc, "missing") != nil {
		t.Fatal("unknown series should be nil")
	}

	sum := acc.Summary()
	if sum.Snapshots != 3 || len(sum.Metrics) == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	var found bool
	for _, m := range sum.Metrics {
		if m.Name == "c" {
			found = true
			if m.Last != 6 || m.Max != 6 || m.Samples != 3 || m.Mean != 10.0/3.0 {
				t.Fatalf("summary for c = %+v", m)
			}
		}
	}
	if !found {
		t.Fatal("summary missing series c")
	}
}

// values reads one series' values in sample order (nil for unknown names).
func values(acc *Accumulator, name string) []float64 {
	var vs []float64
	for _, p := range acc.Points(name) {
		vs = append(vs, p.Value)
	}
	return vs
}

func TestAccumulatorReordersByVirtualTime(t *testing.T) {
	// Snapshots reach the accumulator through the blackboard's concurrent
	// worker pool, so they can arrive out of order; the series must come
	// out sorted by virtual time regardless.
	reg := NewRegistry()
	c := reg.Counter("c")

	snaps := make([]*Snapshot, 3)
	for i := range snaps {
		c.Add(1)
		snaps[i] = reg.Snapshot(uint64(i), int64((i+1)*100), 0)
	}
	var acc Accumulator
	for _, i := range []int{1, 2, 0} { // swapped arrival
		acc.AddSnapshot(snaps[i])
	}
	pts := acc.Points("c")
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	for i, want := range []int64{100, 200, 300} {
		if pts[i].VirtualNs != want {
			t.Fatalf("points out of virtual order: %+v", pts)
		}
	}
	if vs := values(&acc, "c"); vs[0] != 1 || vs[1] != 2 || vs[2] != 3 {
		t.Fatalf("values = %v, want monotone counter", vs)
	}
}

// captureWriter records snapshot writes for sampler tests.
type captureWriter struct {
	bufs [][]byte
	err  error
}

func (w *captureWriter) Write(payload []byte, size int64) error {
	if w.err != nil {
		return w.err
	}
	w.bufs = append(w.bufs, append([]byte(nil), payload[:size]...))
	return nil
}

func TestSamplerCadence(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	w := &captureWriter{}
	s := NewSampler(reg, w, time.Millisecond, 4)
	for now := des.Time(0); now < des.Time(5*time.Millisecond); now += des.Time(100 * time.Microsecond) {
		c.Add(1)
		if err := s.Poll(now); err != nil {
			t.Fatalf("Poll: %v", err)
		}
	}
	if s.Samples() != 5 {
		t.Fatalf("samples = %d, want 5", s.Samples())
	}
	var acc Accumulator
	for _, b := range w.bufs {
		if err := acc.AddEncoded(b); err != nil {
			t.Fatalf("decode sampled snapshot: %v", err)
		}
	}
	last := acc.Points("c")
	if len(last) != 5 || last[4].Value <= last[0].Value {
		t.Fatalf("sampled counter series = %+v", last)
	}
	for i, p := range last {
		if i > 0 && p.VirtualNs <= last[i-1].VirtualNs {
			t.Fatalf("virtual time not increasing: %+v", last)
		}
	}
	// Source rank rides along.
	snap, err := DecodeSnapshot(w.bufs[0])
	if err != nil || snap.Source != 4 {
		t.Fatalf("source = %d err=%v, want 4", snap.Source, err)
	}
}

func TestSamplerBufferFuncAndError(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(1)
	w := &captureWriter{}
	s := NewSampler(reg, w, time.Millisecond, 0)
	var asked int
	s.SetBufferFunc(func(n int) []byte {
		asked = n
		return make([]byte, 0, n)
	})
	if err := s.Flush(0); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if asked != SnapshotBlockSize {
		t.Fatalf("buffer hint = %d, want %d", asked, SnapshotBlockSize)
	}
	w.err = errors.New("stream down")
	if err := s.Flush(des.Time(time.Second)); err == nil {
		t.Fatal("expected write error")
	}
	if s.Err() == nil || !strings.Contains(s.Err().Error(), "stream down") {
		t.Fatalf("sticky error = %v", s.Err())
	}
}
