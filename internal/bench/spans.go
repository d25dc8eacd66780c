package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer's public API, or one isolated
// stage loop. Unit is the pass or segment the span belongs to: the
// identifier every span of one request shares.
type Span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"` // -1 = root
	Name    string `json:"name"`
	Unit    int32  `json:"unit"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; spans past it are counted in
// Dropped, not recorded.
const maxSpans = 1 << 19

// Tracer records spans in memory and writes them out when the run ends.
// A nil *Tracer is the tracing-off state: Begin and End are no-ops, so
// workload drivers call it unconditionally.
type Tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []Span
	dropped int64
}

// NewTracer starts an empty span log.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// SpanRef identifies an open span; the zero value is "no span".
type SpanRef struct {
	t  *Tracer
	id int32
}

// Root is the parent of top-level spans.
var Root = SpanRef{id: -1}

// Begin opens a span under parent.
func (t *Tracer) Begin(parent SpanRef, name string, unit int) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return SpanRef{}
	}
	pid := int32(-1)
	if parent.t == t {
		pid = parent.id
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{ID: id, Parent: pid, Name: name, Unit: int32(unit), StartNs: now, EndNs: -1})
	return SpanRef{t: t, id: id}
}

// End closes the span.
func (s SpanRef) End() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id].EndNs = now
	s.t.mu.Unlock()
}

// refKernel runs the reference kernel under a span of its own, so the
// span that encloses it does not count the kernel's time as self time.
func (t *Tracer) refKernel(parent SpanRef, unit int) RefTime {
	sp := t.Begin(parent, "harness.RefKernel", unit)
	defer sp.End()
	return RefKernel()
}

// SpanTotal aggregates the spans of one name.
type SpanTotal struct {
	Name    string
	Count   int64
	TotalNs int64
	// SelfNs is TotalNs minus the part of each span's interval that its
	// child spans cover.
	SelfNs int64
}

// SelfTimes returns every span's self time, indexed by span id: the
// span's duration minus the union of its children's intervals, clipped
// to the span. Spans still open count as zero-length.
func SelfTimes(spans []Span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int32][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.EndNs > s.StartNs {
			kids[s.Parent] = append(kids[s.Parent], iv{s.StartNs, s.EndNs})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.EndNs <= s.StartNs {
			continue
		}
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].lo < ks[b].lo })
		covered, edge := int64(0), s.StartNs
		for _, k := range ks {
			lo, hi := k.lo, k.hi
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// Totals aggregates the recorded spans by name, largest total first.
func (t *Tracer) Totals() []SpanTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	self := SelfTimes(spans)
	byName := make(map[string]*SpanTotal)
	for i, s := range spans {
		if s.EndNs < s.StartNs {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &SpanTotal{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalNs += s.EndNs - s.StartNs
		st.SelfNs += self[i]
	}
	out := make([]SpanTotal, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].TotalNs != out[b].TotalNs {
			return out[a].TotalNs > out[b].TotalNs
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// Dropped reports how many spans did not fit the in-memory log.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteFile writes the span log as JSON: the run's metadata, every
// span, and the dropped count.
func (t *Tracer) WriteFile(path string, meta map[string]any) error {
	t.mu.Lock()
	doc := struct {
		Meta    map[string]any `json:"meta"`
		Dropped int64          `json:"dropped"`
		Spans   []Span         `json:"spans"`
	}{meta, t.dropped, t.spans}
	t.mu.Unlock()
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
