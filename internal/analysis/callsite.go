package analysis

import (
	"sort"
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
}

type callsiteKey struct {
	ctx  uint32
	kind trace.Kind
}

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
	entry(m.per, callsiteKey{ctx: ev.Ctx, kind: ev.Kind}).add(ev)
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

// Top returns the n call-site rows with the largest accumulated time,
// most expensive first.
func (m *CallsiteModule) Top(n int) []CallsiteStat {
	m.mu.Lock()
	out := make([]CallsiteStat, 0, len(m.per))
	for key, st := range m.per {
		out = append(out, CallsiteStat{Ctx: key.ctx, Label: m.name[key.ctx], Kind: key.kind, Stat: *st})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stat.TimeNs != out[j].Stat.TimeNs {
			return out[i].Stat.TimeNs > out[j].Stat.TimeNs
		}
		if out[i].Ctx != out[j].Ctx {
			return out[i].Ctx < out[j].Ctx
		}
		return out[i].Kind < out[j].Kind
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Contexts returns the distinct context ids observed.
func (m *CallsiteModule) Contexts() []uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[uint32]bool{}
	for key := range m.per {
		seen[key.ctx] = true
	}
	out := make([]uint32, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Merge folds another call-site module into this one.
func (m *CallsiteModule) Merge(o *CallsiteModule) {
	o.mu.Lock()
	snap := make(map[callsiteKey]Stat, len(o.per))
	for k, st := range o.per {
		snap[k] = *st
	}
	names := make(map[uint32]string, len(o.name))
	for c, l := range o.name {
		names[c] = l
	}
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
