package bench

import "encoding/json"

// MetricDef names one metric the benchmark prints. Bound is the relative
// worsening that counts as a regression (end-to-end metrics only).
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// EndToEnd lists the metrics a user of the engine sees. Every one is
// defined on every workload. BENCHMARK.json repeats this table; a unit
// test keeps the two in step.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.10},
	{"cpu_s_per_mevent", "s", "lower", 0.15},
	{"event_to_query_ms_p50", "ms", "lower", 0.20},
	{"event_to_query_ms_p90", "ms", "lower", 0.20},
	{"wire_bytes_per_event", "B", "lower", 0.005},
	{"allocs_per_kevent", "1", "lower", 0.05},
}

// PerLayer lists the per-layer metrics of the traced run, named
// <module>.<metric>.
var PerLayer = []MetricDef{
	{"trace.decode_v3_ns_per_event", "ns", "lower", 0},
	{"trace.decode_allocs_per_kevent", "1", "lower", 0},
	{"trace.decode_v1_ns_per_event", "ns", "lower", 0},
	{"trace.encode_v1_ns_per_event", "ns", "lower", 0},
	{"trace.encode_v3_ns_per_event", "ns", "lower", 0},
	{"trace.wire_bytes_per_event_v1", "B", "lower", 0},
	{"trace.wire_bytes_per_event_v2", "B", "lower", 0},
	{"trace.wire_bytes_per_event_v3", "B", "lower", 0},
	{"analysis.fold_ns_per_event", "ns", "lower", 0},
	{"analysis.fused_absorb_ns_per_event", "ns", "lower", 0},
	{"analysis.fold_allocs_per_kevent", "1", "lower", 0},
	{"analysis.fused_lanes2_ns_per_event", "ns", "lower", 0},
	{"analysis.window_fold_ns_per_event", "ns", "lower", 0},
	{"analysis.partial_flush_us", "us", "lower", 0},
	{"analysis.partial_decode_us", "us", "lower", 0},
	{"analysis.partial_merge_us", "us", "lower", 0},
	{"analysis.merge_reset_us", "us", "lower", 0},
	{"analysis.canonical_us", "us", "lower", 0},
	{"analysis.partial_bytes", "B", "lower", 0},
	{"blackboard.post_drain_ns_per_event", "ns", "lower", 0},
	{"blackboard.dropped", "count", "lower", 0},
	{"wire.frame_write_ns_per_pack", "ns", "lower", 0},
	{"wire.frame_read_ns_per_pack", "ns", "lower", 0},
	{"wire.frame_overhead_bytes_per_pack", "B", "lower", 0},
	{"wire.state_encode_us", "us", "lower", 0},
	{"wire.state_parse_us", "us", "lower", 0},
	{"client.send_pack_us_p50", "us", "lower", 0},
	{"client.send_pack_us_p99", "us", "lower", 0},
	{"client.close_ms_p50", "ms", "lower", 0},
	{"client.diff_ms_p50", "ms", "lower", 0},
	{"client.diff_ms_p98", "ms", "lower", 0},
	{"client.diff_apply_ms_p50", "ms", "lower", 0},
	{"client.snapshot_ms_p50", "ms", "lower", 0},
	{"client.state_bytes_per_diff", "B", "lower", 0},
	{"serviced.residual_ns_per_event", "ns", "lower", 0},
	{"serviced.workers2_events_per_s", "1/s", "higher", 0},
	{"serviced.shed_events", "count", "lower", 0},
	{"serviced.sessions_aborted", "count", "lower", 0},
	{"serviced.replica_merges", "count", "lower", 0},
	{"serviced.sustainable_events_per_s", "1/s", "higher", 0},
	{"report.render_us", "us", "lower", 0},
	{"report.json_us", "us", "lower", 0},
	{"report.bytes", "B", "lower", 0},
	{"report.reduction_ratio", "1", "higher", 0},
	{"exp.capture_run_ns_per_event", "ns", "lower", 0},
	{"exp.analysis_share", "1", "lower", 0},
	{"instrument.app_overhead_pct", "%", "lower", 0},
	{"vmpi.stream_sim_gbps", "GB/s", "higher", 0},
	{"harness.ref_kernel_ms_p50", "ms", "lower", 0},
	{"harness.raw_events_per_s", "1/s", "higher", 0},
	{"harness.raw_cpu_s_per_mevent", "s", "lower", 0},
	{"harness.gen_lateness_ms_p99", "ms", "lower", 0},
	{"harness.trace_overhead_pct", "%", "lower", 0},
}

// WorkloadDef names one workload and why it is in the benchmark.
type WorkloadDef struct {
	Name string
	Why  string
	// OpenLoop workloads send on a schedule; their latencies and rates
	// are reported raw. Closed-loop workloads are reference-normalised.
	OpenLoop bool
}

// Workloads lists the benchmark's four workloads. The measured phase of
// each is long, so there are only four; variants (rate ladder,
// Workers=2, parallel lanes) live in the traced run.
var Workloads = []WorkloadDef{
	{Name: "fused_ingest", Why: "standalone engine, closed loop: trace decode and analysis fold do nearly all the work and wire, client and serviced none, so a codec or fold gain shows undiluted"},
	{Name: "daemon_ingest", Why: "the same packs through client, loopback TCP and serviced, closed loop: its gap to fused_ingest is framing, per-pack flush, credit round-trips and the session loop"},
	{Name: "daemon_live_query", Why: "read-heavy daemon use, open loop: 100k events/s paced, Diff poll every 50 ms on 256 ranks with all modules on; seal, canonical encode, state framing and client merge dominate", OpenLoop: true},
	{Name: "sim_profile", Why: "the whole path in simulation on pack v1: recorder, pack encode, vmpi, des/mpi/simnet and the per-event blackboard path the other three bypass; deterministic, so the same for every seed"},
}

// BenchmarkJSON renders the tables above as the repository's
// BENCHMARK.json. A unit test keeps the checked-in file identical, and
// prints what it should read when it is not.
func BenchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./cmd/bench"},
		Paths:      []string{"cmd/bench", "internal/bench"},
		RunSeconds: DefaultSeconds,
	}
	for _, w := range Workloads {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	for _, d := range EndToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range PerLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers cannot fail to marshal
	}
	return append(out, '\n')
}

// unitOf looks a metric's unit up in a table.
func unitOf(defs []MetricDef, name string) (string, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit, true
		}
	}
	return "", false
}

// FindWorkload returns the named workload's definition.
func FindWorkload(name string) (WorkloadDef, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return WorkloadDef{}, false
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run of one workload reports.
type Result struct {
	Workload  string
	Seed      int64
	Correct   bool
	Attempted int64
	Failed    int64
	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one.
	Metrics map[string]Value
	// Harness holds what is printed but is not part of the contract line:
	// on an untraced run the raw readings that say how far to trust it, on
	// a traced run the end-to-end metrics of its short untraced slice.
	Harness map[string]Value
	// Units is the number of passes or segments measured, and Samples the
	// number of latency samples pooled.
	Units, Samples int
	// Errors lists what failed (at most a few).
	Errors []string
	// FingerprintKey and Fingerprint identify the run's result content
	// (testdata/fingerprints.json), when the workload has one.
	FingerprintKey, Fingerprint string
}

// latencyBlock is the least number of latency samples a percentile is
// taken over.
const latencyBlock = 20

// blockPercentiles groups consecutive units into blocks of at least
// latencyBlock samples (one ingest pass or one live segment is a block
// by itself; sim_profile, with one sample per pass, needs twenty passes),
// takes each block's 50th and 90th percentile, and returns the medians
// over blocks. A burst of machine noise lands in a few blocks and leaves
// the median block alone, where it would own the tail of a pooled
// sample; it is the latency form of "median over passes".
func blockPercentiles(units [][]float64) (p50, p90 float64) {
	var p50s, p90s, block []float64
	for _, u := range units {
		block = append(block, u...)
		if len(block) >= latencyBlock {
			p50s = append(p50s, Percentile(block, 50))
			p90s = append(p90s, Percentile(block, 90))
			block = nil
		}
	}
	if len(p50s) == 0 {
		// A run too short for one full block: use what there is.
		return Percentile(block, 50), Percentile(block, 90)
	}
	return Median(p50s), Median(p90s)
}

// endToEnd reduces a measurement to the seven end-to-end metrics.
func endToEnd(w WorkloadDef, m *measurement) (map[string]Value, map[string]Value) {
	var rate, rateRaw, cpu, cpuRaw, refMs []float64
	var latN, latRaw [][]float64
	var events, wireBytes, wireEvents int64
	for _, s := range m.samples {
		ev := float64(s.events)
		rate = append(rate, ev/s.norm)
		rateRaw = append(rateRaw, ev/s.raw)
		cpu = append(cpu, s.cpu/ev*1e6)
		cpuRaw = append(cpuRaw, s.rawCPU/ev*1e6)
		refMs = append(refMs, s.refMs)
		latN = append(latN, s.latN)
		latRaw = append(latRaw, s.latRaw)
		events += s.events
		wireBytes += s.wireBytes
		if s.wireEvents > 0 {
			wireEvents += s.wireEvents
		} else {
			wireEvents += s.events
		}
	}
	mallocs, rateV := m.mallocs, Median(rate)
	if w.OpenLoop {
		// The delivered rate of an open loop is set by the schedule, not by
		// machine speed: it is reported raw. Its latency and CPU time are
		// work (seal, merge, encode), scale with machine speed like a
		// pass, and stay normalised.
		rateV, mallocs = Median(rateRaw), m.unitMallocs
	}
	p50, p90 := blockPercentiles(latN)
	p50raw, p90raw := blockPercentiles(latRaw)
	out := map[string]Value{}
	set := func(name string, v float64) {
		unit, _ := unitOf(EndToEnd, name)
		out[name] = Value{v, unit}
	}
	set("setup_s", Median(m.setupS))
	set("events_per_s", rateV)
	set("cpu_s_per_mevent", Median(cpu))
	set("event_to_query_ms_p50", p50)
	set("event_to_query_ms_p90", p90)
	if wireEvents > 0 {
		set("wire_bytes_per_event", float64(wireBytes)/float64(wireEvents))
	}
	if events > 0 {
		set("allocs_per_kevent", float64(mallocs)/float64(events)*1e3)
	}
	harness := map[string]Value{
		"harness.ref_kernel_ms_p50":         {Median(refMs), "ms"},
		"harness.raw_events_per_s":          {Median(rateRaw), "1/s"},
		"harness.raw_cpu_s_per_mevent":      {Median(cpuRaw), "s"},
		"harness.raw_event_to_query_ms_p50": {p50raw, "ms"},
		"harness.raw_event_to_query_ms_p90": {p90raw, "ms"},
		"harness.setup_s_max":               {Percentile(m.setupS, 100), "s"},
	}
	return out, harness
}
