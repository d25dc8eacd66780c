package analysis

import (
	"cmp"
	"maps"
	"slices"
	"sync"

	"repro/internal/trace"
)

// CallsiteModule attributes time and volume to call sites: the paper's
// instrumentation records each MPI call *and its context*, and the Ctx
// field of every event carries that call-site identifier. Aggregating by
// (context, kind) turns the flat MPI profile into the per-phase breakdown
// a developer actually acts on ("is the time in copy_faces or in
// x_solve?").
type CallsiteModule struct {
	mu   sync.Mutex
	per  map[callsiteKey]*Stat
	name map[uint32]string
	keys []callsiteKey // the encoder's sort scratch
}

// callsiteKey packs (ctx, kind) into one word, ctx<<8 | kind: a map
// hashes it on its 64-bit fast path, and it sorts as (ctx, kind).
type callsiteKey uint64

func makeCallsiteKey(ctx uint32, kind trace.Kind) callsiteKey {
	return callsiteKey(ctx)<<8 | callsiteKey(kind)
}

func (k callsiteKey) ctx() uint32      { return uint32(k >> 8) }
func (k callsiteKey) kind() trace.Kind { return trace.Kind(k) }

// CallsiteStat is one row of the call-site profile.
type CallsiteStat struct {
	// Ctx is the call-site identifier; Label its registered name ("" if
	// unregistered).
	Ctx   uint32
	Label string
	// Kind is the MPI call.
	Kind trace.Kind
	// Stat aggregates hits/bytes/time.
	Stat Stat
}

// NewCallsiteModule creates an empty call-site profiler.
func NewCallsiteModule() *CallsiteModule {
	return &CallsiteModule{per: make(map[callsiteKey]*Stat), name: make(map[uint32]string)}
}

// Label registers a human-readable name for a context id (the
// instrumented application publishes its phase table).
func (m *CallsiteModule) Label(ctx uint32, label string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.name[ctx] = label
}

// Add folds one event in.
func (m *CallsiteModule) Add(ev *trace.Event) {
	m.mu.Lock()
	m.fold(ev)
	m.mu.Unlock()
}

func (m *CallsiteModule) fold(ev *trace.Event) {
	entry(m.per, makeCallsiteKey(ev.Ctx, ev.Kind)).add(ev)
}

// mergeReset folds o into m and resets o's stats in place, keeping o's
// keys and buckets for reuse. Replica modules never carry labels, so
// names are left alone. The caller must own o exclusively.
func (m *CallsiteModule) mergeReset(o *CallsiteModule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, st := range o.per {
		dst := entry(m.per, k)
		dst.merge(*st)
		*st = Stat{}
	}
}

// AppendTop appends the n call-site rows with the largest accumulated
// time, most expensive first (every row when n <= 0), to dst and returns
// the extended slice.
func (m *CallsiteModule) AppendTop(dst []CallsiteStat, n int) []CallsiteStat {
	m.mu.Lock()
	base := len(dst)
	for key, st := range m.per {
		dst = append(dst, CallsiteStat{Ctx: key.ctx(), Label: m.name[key.ctx()], Kind: key.kind(), Stat: *st})
	}
	m.mu.Unlock()
	slices.SortFunc(dst[base:], func(a, b CallsiteStat) int {
		return cmp.Or(cmp.Compare(b.Stat.TimeNs, a.Stat.TimeNs), cmp.Compare(a.Ctx, b.Ctx), cmp.Compare(a.Kind, b.Kind))
	})
	if n > 0 && len(dst)-base > n {
		dst = dst[:base+n]
	}
	return dst
}

// Merge folds another call-site module into this one.
func (m *CallsiteModule) Merge(o *CallsiteModule) {
	o.mu.Lock()
	snap := make(map[callsiteKey]Stat, len(o.per))
	for k, st := range o.per {
		snap[k] = *st
	}
	names := maps.Clone(o.name)
	o.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, st := range snap {
		dst := entry(m.per, k)
		dst.merge(st)
	}
	for c, l := range names {
		if _, ok := m.name[c]; !ok {
			m.name[c] = l
		}
	}
}

// EnableCallsites adds a call-site module to the pipeline's state and
// returns it.
func (p *Pipeline) EnableCallsites() (*CallsiteModule, error) {
	if p.state.Callsites != nil {
		return nil, p.alreadyEnabled("callsites")
	}
	p.state.opts.Callsites = true
	p.state.Callsites = NewCallsiteModule()
	return p.state.Callsites, nil
}
