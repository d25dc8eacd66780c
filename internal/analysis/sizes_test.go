package analysis

import (
	"testing"
	"testing/quick"

	"repro/internal/blackboard"
	"repro/internal/trace"
)

// totals sums the histogram's message and byte counts.
func totals(m *SizesModule) (hits, bytes int64) {
	for _, b := range m.AppendHistogram(nil) {
		hits += b.Hits
		bytes += b.Bytes
	}
	return hits, bytes
}

func TestSizesBucketing(t *testing.T) {
	m := NewSizesModule()
	for _, size := range []int64{0, 1, 2, 3, 4, 1000, 1024, 1<<20 - 1, 1 << 20} {
		m.Add(&trace.Event{Kind: trace.KindSend, Size: size})
	}
	// Incoming p2p and collectives must not count.
	m.Add(&trace.Event{Kind: trace.KindRecv, Size: 64})
	m.Add(&trace.Event{Kind: trace.KindAllreduce, Size: 64})

	hits, bytes := totals(m)
	if hits != 9 {
		t.Fatalf("hits = %d", hits)
	}
	var want int64
	for _, s := range []int64{0, 1, 2, 3, 4, 1000, 1024, 1<<20 - 1, 1 << 20} {
		want += s
	}
	if bytes != want {
		t.Fatalf("bytes = %d, want %d", bytes, want)
	}
	hist := m.AppendHistogram(nil)
	// Buckets: [0,2): {0,1}; [2,4): {2,3}; [4,8): {4}; [512,1024): {1000};
	// [1024,2048): {1024}; [2^19,2^20): {2^20-1}; [2^20,2^21): {2^20}.
	if len(hist) != 7 {
		t.Fatalf("buckets = %+v", hist)
	}
	if hist[0].Hits != 2 || hist[0].Lo != 0 || hist[0].Hi != 2 {
		t.Fatalf("bucket0 = %+v", hist[0])
	}
	if hist[3].Lo != 512 || hist[3].Hits != 1 {
		t.Fatalf("bucket3 = %+v", hist[3])
	}
}

func TestSizesMedian(t *testing.T) {
	m := NewSizesModule()
	for i := 0; i < 10; i++ {
		m.Add(&trace.Event{Kind: trace.KindIsend, Size: 100}) // bucket [64,128)
	}
	m.Add(&trace.Event{Kind: trace.KindIsend, Size: 1 << 20})
	med := m.MedianBucket()
	if med.Lo != 64 || med.Hi != 128 {
		t.Fatalf("median = %+v", med)
	}
	if z := NewSizesModule().MedianBucket(); z.Hits != 0 {
		t.Fatalf("empty median = %+v", z)
	}
}

func TestSizesMerge(t *testing.T) {
	a, b := NewSizesModule(), NewSizesModule()
	a.Add(&trace.Event{Kind: trace.KindSend, Size: 128})
	b.Add(&trace.Event{Kind: trace.KindSend, Size: 128})
	b.Add(&trace.Event{Kind: trace.KindSend, Size: 4096})
	a.Merge(b)
	hits, bytes := totals(a)
	if hits != 3 || bytes != 128+128+4096 {
		t.Fatalf("merged = %d/%d", hits, bytes)
	}
}

func TestPipelineEnableSizes(t *testing.T) {
	bb := blackboard.New(blackboard.Config{Workers: 2})
	defer bb.Close()
	p, err := NewPipeline(bb, "app", 2)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := p.EnableSizes()
	if err != nil {
		t.Fatal(err)
	}
	p.PostPack(buildPack(0, 0, sendEvent(0, 1, 2048, 0, 1), sendEvent(0, 1, 2048, 1, 2)))
	bb.Drain()
	hits, bytes := totals(sm)
	if hits != 2 || bytes != 4096 {
		t.Fatalf("totals = %d/%d", hits, bytes)
	}
}

// Property: every added outgoing p2p event lands in exactly one bucket
// whose bounds contain its size, and totals are conserved.
func TestSizesConservationProperty(t *testing.T) {
	f := func(sizes []uint32) bool {
		m := NewSizesModule()
		var wantBytes int64
		for _, s := range sizes {
			sz := int64(s % (1 << 26))
			m.Add(&trace.Event{Kind: trace.KindSend, Size: sz})
			wantBytes += sz
		}
		hits, bytes := totals(m)
		if hits != int64(len(sizes)) || bytes != wantBytes {
			return false
		}
		for _, b := range m.AppendHistogram(nil) {
			if b.Hits == 0 || b.Lo >= b.Hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
