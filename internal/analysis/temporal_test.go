package analysis

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/blackboard"
	"repro/internal/trace"
)

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

func TestTemporalBucketsByStartTime(t *testing.T) {
	m := NewTemporalModule(100)
	evs := []trace.Event{
		{Kind: trace.KindSend, Size: 10, TStart: 5, TEnd: 15},    // bucket 0
		{Kind: trace.KindSend, Size: 20, TStart: 150, TEnd: 160}, // bucket 1
		{Kind: trace.KindSend, Size: 30, TStart: 950, TEnd: 980}, // bucket 9
	}
	for i := range evs {
		m.Add(&evs[i])
	}
	if m.Buckets() != 10 {
		t.Fatalf("buckets = %d", m.Buckets())
	}
	hits := m.Series(trace.KindSend, MetricHits)
	if hits[0] != 1 || hits[1] != 1 || hits[9] != 1 || hits[5] != 0 {
		t.Fatalf("hits = %v", hits)
	}
	bytes := m.Series(trace.KindSend, MetricBytes)
	if bytes[0] != 10 || bytes[1] != 20 || bytes[9] != 30 {
		t.Fatalf("bytes = %v", bytes)
	}
}

func TestTemporalProRataSpread(t *testing.T) {
	m := NewTemporalModule(100)
	// A 250 ns wait spanning buckets 0..2: 50 + 100 + 100.
	ev := trace.Event{Kind: trace.KindWait, TStart: 50, TEnd: 300}
	m.Add(&ev)
	times := m.Series(trace.KindWait, MetricTime)
	want := []float64{50, 100, 100}
	for b, w := range want {
		if times[b] != w {
			t.Fatalf("bucket %d = %v, want %v (all: %v)", b, times[b], w, times)
		}
	}
}

func TestTemporalCommunicationSeries(t *testing.T) {
	m := NewTemporalModule(100)
	evs := []trace.Event{
		{Kind: trace.KindSend, TStart: 0, TEnd: 10},
		{Kind: trace.KindBarrier, TStart: 10, TEnd: 60},
		{Kind: trace.KindInit, TStart: 0, TEnd: 90}, // not communication
	}
	for i := range evs {
		m.Add(&evs[i])
	}
	comm := m.AppendCommunicationTimeSeries(nil)
	if comm[0] != 60 {
		t.Fatalf("comm series = %v", comm)
	}
}

func TestTemporalMerge(t *testing.T) {
	a, b := NewTemporalModule(100), NewTemporalModule(100)
	ev1 := trace.Event{Kind: trace.KindSend, Size: 5, TStart: 0, TEnd: 10}
	ev2 := trace.Event{Kind: trace.KindSend, Size: 7, TStart: 250, TEnd: 260}
	a.Add(&ev1)
	b.Add(&ev2)
	a.Merge(b)
	if a.Buckets() != 3 {
		t.Fatalf("buckets = %d", a.Buckets())
	}
	bytes := a.Series(trace.KindSend, MetricBytes)
	if bytes[0] != 5 || bytes[2] != 7 {
		t.Fatalf("merged bytes = %v", bytes)
	}
}

func TestTemporalDefaultWindow(t *testing.T) {
	m := NewTemporalModule(0)
	if m.Window() != 1e8 {
		t.Fatalf("window = %d", m.Window())
	}
}

func TestPipelineEnableTemporal(t *testing.T) {
	bb := blackboard.New(blackboard.Config{Workers: 2})
	defer bb.Close()
	p, err := NewPipeline(bb, "app", 2)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := p.EnableTemporal(1000)
	if err != nil {
		t.Fatal(err)
	}
	p.PostPack(buildPack(0, 0,
		sendEvent(0, 1, 64, 100, 200),
		sendEvent(0, 1, 64, 2500, 2600),
	))
	bb.Drain()
	if tm.Buckets() != 3 {
		t.Fatalf("buckets = %d", tm.Buckets())
	}
	if hits := tm.Series(trace.KindSend, MetricHits); hits[0] != 1 || hits[2] != 1 {
		t.Fatalf("hits = %v", hits)
	}
}

// Property: pro-rata time spreading conserves total duration.
func TestTemporalTimeConservationProperty(t *testing.T) {
	f := func(start uint16, dur uint16, window uint8) bool {
		w := int64(window%200) + 10
		m := NewTemporalModule(w)
		ev := trace.Event{Kind: trace.KindWait, TStart: int64(start), TEnd: int64(start) + int64(dur)}
		m.Add(&ev)
		var total float64
		for _, v := range m.Series(trace.KindWait, MetricTime) {
			total += v
		}
		return math.Abs(total-float64(dur)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTemporalRowsBounded reproduces a fold that ran out of memory: 1 µs
// buckets and one event ending about 16 h in, spanning the whole run. The
// rows stop at maxTemporalBuckets, the width doubles instead, the fold
// allocates far below 64 MB, the time is conserved and the partial decodes
// at the width in effect.
func TestTemporalRowsBounded(t *testing.T) {
	const end = 16 * int64(time.Hour)
	pp := NewPartial(0, PartialOptions{AppSize: 2, TemporalWindowNs: 1000})
	evs := []trace.Event{
		{Kind: trace.KindWait, TStart: 0, TEnd: end},
		{Kind: trace.KindSend, Rank: 0, Peer: 1, Size: 8, TStart: end, TEnd: end},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range evs {
		pp.AddEvent(&evs[i])
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Fatalf("the fold allocated %d bytes", alloc)
	}
	dec, err := DecodePartial(pp.AppendCanonical(nil))
	if err != nil {
		t.Fatal(err)
	}
	m := dec.Temporal
	w := m.Window()
	if w <= 1000 || w%1000 != 0 || m.Buckets() > maxTemporalBuckets || m.Buckets() != int(end/w)+1 {
		t.Fatalf("width %d ns over %d buckets", w, m.Buckets())
	}
	var total float64
	for _, v := range m.Series(trace.KindWait, MetricTime) {
		total += v
	}
	if total != float64(end) {
		t.Fatalf("wait time %v, want %d", total, end)
	}
	if hits := m.Series(trace.KindSend, MetricHits); hits[len(hits)-1] != 1 {
		t.Fatalf("the send is not in the last bucket: %v", hits[len(hits)-4:])
	}
}
