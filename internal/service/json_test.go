package service

import (
	"encoding/json"
	"testing"

	"repro/internal/exp"
)

func TestStatusJSON(t *testing.T) {
	s := New(exp.Tera100())
	s.SetHistoryCap(1)

	empty, err := s.StatusJSON()
	if err != nil {
		t.Fatal(err)
	}
	var st0 ServiceStatusJSON
	if err := json.Unmarshal(empty, &st0); err != nil {
		t.Fatal(err)
	}
	if st0.Platform != "Tera100" || st0.Stats.Jobs != 0 || len(st0.History) != 0 {
		t.Fatalf("empty status = %+v", st0)
	}

	if _, err := s.Submit(smallJob(t, "CG", 8)); err != nil {
		t.Fatal(err)
	}
	r2, err := s.Submit(smallJob(t, "LU", 8))
	if err != nil {
		t.Fatal(err)
	}

	raw, err := s.StatusJSON()
	if err != nil {
		t.Fatal(err)
	}
	var st ServiceStatusJSON
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Stats.Jobs != 2 || st.Stats.Applications != 2 || st.Stats.Events == 0 {
		t.Fatalf("stats = %+v", st.Stats)
	}
	// The per-benchmark list is a documented name-sorted contract.
	if len(st.Stats.PerBenchmark) != 2 ||
		st.Stats.PerBenchmark[0].Name != "CG.C" || st.Stats.PerBenchmark[1].Name != "LU.C" {
		t.Fatalf("per-benchmark = %+v", st.Stats.PerBenchmark)
	}
	// With a cap of one, only the newest job is retained and the eviction
	// is accounted.
	if len(st.History) != 1 || st.History[0].ID != r2.ID || st.HistoryEvicted != 1 {
		t.Fatalf("history = %+v evicted = %d", st.History, st.HistoryEvicted)
	}
	if len(st.History[0].Apps) != 1 || st.History[0].Apps[0] != "LU.C" {
		t.Fatalf("history apps = %v", st.History[0].Apps)
	}
	if st.History[0].Events != r2.Events || st.History[0].AppSeconds != r2.AppSeconds {
		t.Fatalf("history row = %+v vs result %+v", st.History[0], r2)
	}
}

// TestLastSampleSurfaced pins the regression where the final telemetry
// sampler snapshot timestamp was recorded by the engine-health
// accumulator but never surfaced: the history ring and the status JSON
// must both expose it, since windowed lag gauges are read off sampler
// snapshots and the last stamp bounds how stale a job's closing lag
// figures can be.
func TestLastSampleSurfaced(t *testing.T) {
	s := New(exp.Tera100())

	// A job without telemetry has no sampler; its stamp is zero and the
	// JSON field is omitted.
	plain, err := s.Submit(smallJob(t, "CG", 8))
	if err != nil {
		t.Fatal(err)
	}
	if plain.LastSampleNs != 0 {
		t.Fatalf("telemetry-free job LastSampleNs = %d, want 0", plain.LastSampleNs)
	}

	job := smallJob(t, "LU", 8)
	job.Options.Telemetry = true
	res, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.LastSampleNs <= 0 {
		t.Fatalf("telemetry job LastSampleNs = %d, want > 0", res.LastSampleNs)
	}
	if got := res.Report.EngineHealth.LastSampleNs(); got != res.LastSampleNs {
		t.Fatalf("result stamp %d != engine-health stamp %d", res.LastSampleNs, got)
	}

	raw, err := s.StatusJSON()
	if err != nil {
		t.Fatal(err)
	}
	var st ServiceStatusJSON
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.History) != 2 {
		t.Fatalf("history rows = %d, want 2", len(st.History))
	}
	if st.History[0].LastSampleNs != 0 {
		t.Fatalf("telemetry-free row stamp = %d, want 0", st.History[0].LastSampleNs)
	}
	if st.History[1].LastSampleNs != res.LastSampleNs {
		t.Fatalf("status row stamp = %d, want %d", st.History[1].LastSampleNs, res.LastSampleNs)
	}
	// The omitempty contract: a zero stamp does not appear on the wire.
	var loose struct {
		History []map[string]any `json:"history"`
	}
	if err := json.Unmarshal(raw, &loose); err != nil {
		t.Fatal(err)
	}
	if _, ok := loose.History[0]["last_sample_ns"]; ok {
		t.Fatal("zero last_sample_ns serialized despite omitempty")
	}
	if _, ok := loose.History[1]["last_sample_ns"]; !ok {
		t.Fatal("last_sample_ns missing from telemetry job row")
	}
}
