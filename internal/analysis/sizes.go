package analysis

import (
	"sync"

	"repro/internal/trace"
)

// SizeBuckets is the number of power-of-two message-size buckets tracked
// by the SizesModule (bucket i covers [2^i, 2^(i+1)) bytes; bucket 0 also
// absorbs empty messages).
const SizeBuckets = 40

// SizesModule histograms point-to-point message sizes in power-of-two
// buckets, the classic communication-characterization view (mpiP's
// "message size distribution") that complements the paper's aggregate
// size weightings: it answers *how* an application communicates, not just
// how much.
type SizesModule struct {
	mu sync.Mutex
	// hits[i] counts outgoing p2p events in size bucket i; bytes[i] sums
	// their payloads.
	hits  [SizeBuckets]int64
	bytes [SizeBuckets]int64
}

// NewSizesModule creates an empty histogram.
func NewSizesModule() *SizesModule { return &SizesModule{} }

// bucketOf returns the power-of-two bucket of a size.
func bucketOf(size int64) int {
	b := 0
	for s := size; s > 1 && b < SizeBuckets-1; s >>= 1 {
		b++
	}
	return b
}

// Add folds one event in.
func (m *SizesModule) Add(ev *trace.Event) {
	m.mu.Lock()
	m.fold(ev)
	m.mu.Unlock()
}

// fold histograms outgoing point-to-point events (each transfer once, at
// its sender).
func (m *SizesModule) fold(ev *trace.Event) {
	if !ev.Kind.IsOutgoingP2P() || ev.Size < 0 {
		return
	}
	b := bucketOf(ev.Size)
	m.hits[b]++
	m.bytes[b] += ev.Size
}

// mergeReset folds o into m and zeroes o's buckets in place. Allocation
// free. The caller must own o exclusively.
func (m *SizesModule) mergeReset(o *SizesModule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for b := 0; b < SizeBuckets; b++ {
		m.hits[b] += o.hits[b]
		m.bytes[b] += o.bytes[b]
		o.hits[b], o.bytes[b] = 0, 0
	}
}

// SizeBucket is one non-empty histogram row.
type SizeBucket struct {
	// Lo and Hi bound the bucket: sizes in [Lo, Hi).
	Lo, Hi int64
	// Hits counts messages; Bytes sums their payloads.
	Hits, Bytes int64
}

// AppendHistogram appends the non-empty buckets in ascending size order
// to dst and returns the extended slice.
func (m *SizesModule) AppendHistogram(dst []SizeBucket) []SizeBucket {
	m.mu.Lock()
	defer m.mu.Unlock()
	for b := 0; b < SizeBuckets; b++ {
		if m.hits[b] == 0 {
			continue
		}
		lo := int64(0)
		if b > 0 {
			lo = 1 << uint(b)
		}
		dst = append(dst, SizeBucket{Lo: lo, Hi: 1 << uint(b+1), Hits: m.hits[b], Bytes: m.bytes[b]})
	}
	return dst
}

// MedianBucket returns the bucket containing the median message (by
// count), or a zero bucket when empty.
func (m *SizesModule) MedianBucket() SizeBucket {
	var buf [SizeBuckets]SizeBucket
	hist := m.AppendHistogram(buf[:0])
	var total int64
	for _, b := range hist {
		total += b.Hits
	}
	var seen int64
	for _, b := range hist {
		seen += b.Hits
		if seen*2 >= total {
			return b
		}
	}
	return SizeBucket{}
}

// Merge folds another histogram into this one.
func (m *SizesModule) Merge(o *SizesModule) {
	o.mu.Lock()
	var h, by [SizeBuckets]int64
	copy(h[:], o.hits[:])
	copy(by[:], o.bytes[:])
	o.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	for b := 0; b < SizeBuckets; b++ {
		m.hits[b] += h[b]
		m.bytes[b] += by[b]
	}
}

// EnableSizes adds a message-size histogram module to the pipeline's
// state and returns it.
func (p *Pipeline) EnableSizes() (*SizesModule, error) {
	if p.state.Sizes != nil {
		return nil, p.alreadyEnabled("sizes")
	}
	p.state.opts.Sizes = true
	p.state.Sizes = NewSizesModule()
	return p.state.Sizes, nil
}
