package serviced

import (
	"sort"

	"repro/internal/report"
)

// historyCap bounds the retained closed-session rows. A daemon outlives
// any single client; an unbounded history is a slow leak.
const historyCap = 128

// ServiceStatus is the daemon's cross-session view inside Status: the
// cumulative counters over every closed session plus a ring of the most
// recent ones — the "centralisation of profiling metrics" the paper's
// §III-C says a batch-manager-embedded tool cannot offer, shared by every
// tenant of the daemon.
type ServiceStatus struct {
	Stats          ServiceStats `json:"stats"`
	History        []HistoryRow `json:"history,omitempty"`
	HistoryEvicted int          `json:"history_evicted"`
}

// ServiceStats counts closed sessions ("jobs"), their applications,
// analysed events and application virtual time. PerBenchmark is
// name-sorted, so the encoding order is a documented contract.
type ServiceStats struct {
	Jobs         int          `json:"jobs"`
	Applications int          `json:"applications"`
	Events       int64        `json:"events"`
	AppSeconds   float64      `json:"app_seconds"`
	PerBenchmark []BenchCount `json:"per_benchmark,omitempty"`
}

// BenchCount is how many closed sessions profiled one application.
type BenchCount struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// HistoryRow summarizes one closed session; IDs count closes from 1.
type HistoryRow struct {
	ID         int      `json:"id"`
	Apps       []string `json:"apps"`
	Events     int64    `json:"events"`
	AppSeconds float64  `json:"app_seconds"`
}

// history keeps rows, not reports: a retained report would pin its
// topology matrices only for its app names to be printed. The daemon's mu
// guards it.
type history struct {
	cap     int
	rows    []HistoryRow // ring; rows[head] is the oldest once full
	head    int
	evicted int
	stats   ServiceStats // PerBenchmark stays nil; perApp holds the counts
	perApp  map[string]int
}

// record folds one closed session's report in, evicting the oldest row
// when the ring is full. Totals are not affected by eviction.
func (h *history) record(rep *report.Report) {
	if h.perApp == nil {
		h.perApp = make(map[string]int)
	}
	h.stats.Jobs++
	row := HistoryRow{ID: h.stats.Jobs}
	for _, ch := range rep.Chapters {
		row.Apps = append(row.Apps, ch.App)
		row.Events += ch.Profiler.Events()
		row.AppSeconds += ch.WallTime.Seconds()
		h.perApp[ch.App]++
	}
	h.stats.Applications += len(rep.Chapters)
	h.stats.Events += row.Events
	h.stats.AppSeconds += row.AppSeconds
	if len(h.rows) < h.cap {
		h.rows = append(h.rows, row)
		return
	}
	h.rows[h.head] = row
	h.head = (h.head + 1) % h.cap
	h.evicted++
}

// status copies the counters and the ring out, oldest row first.
func (h *history) status() ServiceStatus {
	st := ServiceStatus{Stats: h.stats, HistoryEvicted: h.evicted}
	for name, n := range h.perApp {
		st.Stats.PerBenchmark = append(st.Stats.PerBenchmark, BenchCount{Name: name, Count: n})
	}
	sort.Slice(st.Stats.PerBenchmark, func(i, j int) bool {
		return st.Stats.PerBenchmark[i].Name < st.Stats.PerBenchmark[j].Name
	})
	st.History = append(append(st.History, h.rows[h.head:]...), h.rows[:h.head]...)
	return st
}
