// Package service embodies the paper's concluding vision: "a truly
// machine wide server which could provide profiling as a service". Jobs
// (instrumented application launches) are submitted to a persistent
// profiling service; each runs coupled to an analysis partition, and the
// service accumulates machine-wide metrics across jobs — the
// "centralisation of profiling metrics" the paper's §III-C says a
// batch-manager-embedded implementation cannot offer.
//
// Within this reproduction the service is an in-process object: the
// simulated jobs it runs are isolated MPMD worlds, while the service's
// own bookkeeping (job history, cumulative counters, the shared analysis
// engine sizing) lives across jobs, exactly the persistence the paper is
// after. A network front-end would wrap Submit without changing anything
// below it.
package service

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/nas"
	"repro/internal/report"
)

// Job is one profiling request.
type Job struct {
	// Workloads are the applications to run concurrently in one coupled
	// MPMD launch (multi-instrumentation).
	Workloads []*nas.Workload
	// Options forwards analysis options (wait-state, temporal windows...).
	Options exp.ProfileOptions
}

// Result is one completed job.
type Result struct {
	// ID is the job's submission number, starting at 1.
	ID int
	// Report is the per-application profiling report.
	Report *report.Report
	// Events is the total number of events analysed.
	Events int64
	// AppSeconds sums the applications' virtual wall times.
	AppSeconds float64
	// LastSampleNs is the virtual timestamp of the job's final telemetry
	// sampler snapshot (0 when the run carried no engine-health
	// telemetry). Windowed lag gauges are read off sampler snapshots, so
	// the instant the last one was taken bounds how stale the job's
	// closing lag figures can be.
	LastSampleNs int64
}

// Stats is the service's cumulative view across jobs.
type Stats struct {
	// Jobs counts completed jobs.
	Jobs int
	// Applications counts profiled applications across jobs.
	Applications int
	// Events counts analysed events across jobs.
	Events int64
	// AppSeconds sums application virtual wall time across jobs.
	AppSeconds float64
	// PerBenchmark counts profiled applications by name.
	PerBenchmark map[string]int
}

// DefaultHistoryCap bounds the retained job history. A persistent service
// outlives any single client; an unbounded history is a slow leak.
const DefaultHistoryCap = 128

// Service is a persistent profiling front-end.
type Service struct {
	platform exp.Platform

	// runMu serializes job execution (the service owns one analysis
	// allocation). It is distinct from mu so Stats and History never block
	// behind a running job.
	runMu sync.Mutex

	mu         sync.Mutex
	nextID     int
	history    []Result // ring of the most recent historyCap results
	historyCap int
	dropped    int // results evicted from the ring
	stats      Stats
}

// New creates a service on the given platform model.
func New(p exp.Platform) *Service {
	return &Service{
		platform:   p,
		historyCap: DefaultHistoryCap,
		stats:      Stats{PerBenchmark: map[string]int{}},
	}
}

// SetHistoryCap bounds the retained history to the most recent n results
// (n <= 0 keeps none). Cumulative Stats are unaffected by eviction.
func (s *Service) SetHistoryCap(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 {
		n = 0
	}
	s.historyCap = n
	s.evictLocked()
}

func (s *Service) evictLocked() {
	if over := len(s.history) - s.historyCap; over > 0 {
		s.dropped += over
		s.history = append(s.history[:0:0], s.history[over:]...)
	}
}

// Submit runs one job to completion and returns its result. Submissions
// are serialized (the service owns one analysis allocation, like the
// paper's statically assigned resources); concurrent callers queue.
// Stats and History remain responsive while a job runs.
func (s *Service) Submit(job Job) (Result, error) {
	if len(job.Workloads) == 0 {
		return Result{}, fmt.Errorf("service: empty job")
	}
	s.runMu.Lock()
	defer s.runMu.Unlock()
	rep, err := exp.ProfileRun(s.platform, job.Workloads, job.Options)
	if err != nil {
		return Result{}, fmt.Errorf("service: job failed: %w", err)
	}
	return s.Record(rep), nil
}

// Record folds an externally-produced report into the service's history
// and cumulative stats, returning the job's Result. This is the
// bookkeeping half of Submit, split out for front-ends that run the
// analysis elsewhere — the profiling daemon records every closed
// session here, so the cross-job "centralisation of profiling metrics"
// spans in-process jobs and network tenants alike.
func (s *Service) Record(rep *report.Report) Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	res := Result{ID: s.nextID, Report: rep}
	if rep.EngineHealth != nil {
		res.LastSampleNs = rep.EngineHealth.LastSampleNs()
	}
	for _, ch := range rep.Chapters {
		res.Events += ch.Profiler.Events()
		res.AppSeconds += ch.WallTime.Seconds()
		s.stats.PerBenchmark[ch.App]++
	}
	s.stats.Jobs++
	s.stats.Applications += len(rep.Chapters)
	s.stats.Events += res.Events
	s.stats.AppSeconds += res.AppSeconds
	s.history = append(s.history, res)
	s.evictLocked()
	return res
}

// Stats returns a copy of the cumulative counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.PerBenchmark = make(map[string]int, len(s.stats.PerBenchmark))
	for k, v := range s.stats.PerBenchmark {
		out.PerBenchmark[k] = v
	}
	return out
}

// History returns the retained completed jobs in submission order (at most
// the configured history cap; older results are evicted).
func (s *Service) History() []Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Result(nil), s.history...)
}

// HistoryEvicted reports how many results have aged out of the bounded
// history.
func (s *Service) HistoryEvicted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// WriteSummary renders the service's machine-wide view: the cross-job
// metric centralisation of the paper's conclusion.
func (s *Service) WriteSummary(w interface{ Write([]byte) (int, error) }) error {
	st := s.Stats()
	if _, err := fmt.Fprintf(w, "profiling service on %s: %d job(s), %d application(s), %d events, %s application time\n",
		s.platform.Name, st.Jobs, st.Applications, st.Events,
		time.Duration(st.AppSeconds*float64(time.Second))); err != nil {
		return err
	}
	names := make([]string, 0, len(st.PerBenchmark))
	for n := range st.PerBenchmark {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "  %-12s profiled %d time(s)\n", n, st.PerBenchmark[n]); err != nil {
			return err
		}
	}
	return nil
}
