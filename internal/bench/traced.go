package bench

import (
	"fmt"
	"io"

	"repro/internal/serviced"
)

// Unit-id bases that keep the traced run's measurements apart in one
// span log.
const (
	idWorkload = 0
	idDaemon   = 100_000
	idLadder   = 200_000
)

// durations returns the lengths in seconds of the closed spans with the
// given name whose unit lies in [lo, hi).
func (t *Tracer) durations(name string, lo, hi int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && int(s.Unit) >= lo && int(s.Unit) < hi && s.EndNs >= s.StartNs {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// medianPerEvent is the median over a measurement's units of a time per
// event.
func medianPerEvent(m *measurement, seconds func(sample) float64) float64 {
	var vs []float64
	for _, s := range m.samples {
		vs = append(vs, seconds(s)/float64(s.events))
	}
	return Median(vs)
}

// perEvent is a measurement's median normalised wall seconds per event.
func perEvent(m *measurement) float64 {
	return medianPerEvent(m, func(s sample) float64 { return s.norm })
}

// RunTraced is the traced run: it measures the workload briefly with
// tracing off and on (the difference is the tracing overhead), runs the
// stage battery and the variants that exist only here (Workers=2, rate
// ladder), writes the span log to spanFile, prints the span table to
// log, and reports the per-layer metrics, with the untraced slice's
// end-to-end metrics beside them.
func RunTraced(o Options, spanFile string, log io.Writer) (*Result, error) {
	w, ok := FindWorkload(o.Workload)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", o.Workload)
	}
	tr := NewTracer()
	b := &battery{tr: tr, seed: o.Seed, out: map[string]Value{}, log: log}
	in, err := buildIngestInputs(IngestCorpus, o.Seed)
	if err != nil {
		return nil, err
	}

	// The workload itself, tracing off then on.
	slice := o.Seconds / 8
	off, err := measure(slice, 1, idWorkload, nil, setupFor(w, o.Seed, nil, in))
	if err != nil {
		return nil, err
	}
	on, err := measure(slice, 1, idWorkload, tr, setupFor(w, o.Seed, tr, in))
	if err != nil {
		return nil, err
	}
	res := newResult(w, o.Seed, on)
	res.add(off)
	e2e, h := endToEnd(w, off)
	for _, name := range []string{"harness.ref_kernel_ms_p50", "harness.raw_events_per_s", "harness.raw_cpu_s_per_mevent"} {
		b.out[name] = h[name]
	}
	// CPU per event is the cost tracing adds whatever the loop type.
	cpuOf := func(m *measurement) float64 {
		return medianPerEvent(m, func(s sample) float64 { return s.cpu })
	}
	b.set("harness.trace_overhead_pct", (cpuOf(on)/cpuOf(off)-1)*100)

	// Isolated stages.
	if err := b.prepare(); err != nil {
		return nil, err
	}
	b.traceStages()
	b.analysisStages()
	if err := b.liveStages(); err != nil {
		return nil, err
	}
	b.boardStage()
	b.wireStages()
	if err := b.reportStages(); err != nil {
		return nil, err
	}
	if b.err != nil {
		return nil, fmt.Errorf("bench: stage battery: %w", b.err)
	}

	// The two ingest workloads side by side on one corpus: what is left
	// of their gap after the framing stages is the session loop's.
	mini := o.Seconds / 16
	fused, err := measure(mini, 1, 0, nil, func() (instance, error) { return setupFused(in), nil })
	if err != nil {
		return nil, err
	}
	daemon, err := measure(mini, 1, idDaemon, tr, func() (instance, error) { return setupDaemon(in, tr, serviced.Options{}) })
	if err != nil {
		return nil, err
	}
	frameNs := (b.out["wire.frame_write_ns_per_pack"].Value + b.out["wire.frame_read_ns_per_pack"].Value) / float64(IngestCorpus.EventsPerPack)
	b.set("serviced.residual_ns_per_event", (perEvent(daemon)-perEvent(fused))*1e9-frameNs)
	send := tr.durations("client.Client.SendPack", idDaemon, idLadder)
	b.set("client.send_pack_us_p50", Percentile(send, 50)*1e6)
	b.set("client.send_pack_us_p99", Percentile(send, 99)*1e6)
	b.set("client.close_ms_p50", Median(tr.durations("client.Client.Close", idDaemon, idLadder))*1e3)
	for _, name := range []string{"serviced.shed_events", "serviced.sessions_aborted"} {
		b.out[name] = daemon.extras[name]
	}
	workers2, err := measure(mini, 1, 0, nil, func() (instance, error) {
		return setupDaemon(in, nil, serviced.Options{Workers: 2})
	})
	if err != nil {
		return nil, err
	}
	b.set("serviced.workers2_events_per_s", 1/perEvent(workers2))
	b.out["serviced.replica_merges"] = workers2.extras["serviced.replica_merges"]
	res.add(fused)
	res.add(daemon)
	res.add(workers2)

	if err := b.ladder(o.Seconds/14, res); err != nil {
		return nil, err
	}
	sim, err := measure(mini, 1, 0, nil, setupSim)
	if err != nil {
		return nil, err
	}
	res.add(sim)
	if err := b.simStages(perEvent(sim)); err != nil {
		return nil, err
	}
	// The ladder counts its operations straight into the result.
	res.Correct = res.Correct && res.Failed == 0

	for _, d := range PerLayer {
		if _, ok := b.out[d.Name]; !ok {
			return nil, fmt.Errorf("bench: traced run produced no %s", d.Name)
		}
	}
	// The contract line of a traced run carries the per-layer metrics; the
	// end-to-end ones, from the untraced slice, are printed beside them.
	res.Metrics = b.out
	res.Harness = e2e
	fmt.Fprintf(log, "# end-to-end metrics are from this run's untraced slice of %.2f s, not a full measured phase\n", slice)

	if err := tr.WriteFile(spanFile, map[string]any{
		"workload": w.Name, "seed": o.Seed, "seconds": o.Seconds, "gomaxprocs": Procs,
	}); err != nil {
		return nil, fmt.Errorf("bench: writing span file: %w", err)
	}
	fmt.Fprintf(log, "# spans written to %s (%d dropped past the in-memory limit)\n", spanFile, tr.Dropped())
	fmt.Fprintf(log, "# %-44s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range tr.Totals() {
		fmt.Fprintf(log, "# %-44s %10d %14.3f %14.3f\n", st.Name, st.Count, float64(st.TotalNs)/1e6, float64(st.SelfNs)/1e6)
	}
	return res, nil
}

// ladder offers the live workload's stream at 1×, 2×, 4× and 8× its rate,
// one segment of the given length each, and reports the highest rate that
// keeps p90 within the limit without a growing backlog. It starts at the
// workload's own rate because every rung up to 4× is sustained at the
// commit that defined the benchmark. The 1× rung is the live workload
// itself, so the client-side query metrics are read from its spans.
func (b *battery) ladder(rungSeconds float64, res *Result) error {
	const limitMs = 20.0
	sustainable := 0.0
	fmt.Fprintf(b.log, "# rate ladder (%.1f s per rung, limit p90 <= %.0f ms):\n", rungSeconds, limitMs)
	for r, mult := range []float64{1, 2, 4, 8} {
		cfg := LiveQuery
		cfg.PacksPerTick = int(float64(cfg.PacksPerTick) * mult)
		cfg.SegmentTicks = int(rungSeconds / cfg.Tick.Seconds())
		cfg.SegmentTicks -= cfg.SegmentTicks % cfg.PollTicks
		if cfg.SegmentTicks < cfg.PollTicks {
			cfg.SegmentTicks = cfg.PollTicks
		}
		inst, err := setupLive(b.seed, b.tr, cfg, serviced.Options{})
		if err != nil {
			return err
		}
		// A rung that falls 50 ticks behind is not coming back.
		inst.maxLate = 50 * cfg.Tick
		sp := b.tr.Begin(Root, fmt.Sprintf("stage:ladder_%gx", mult), idLadder+r)
		u, err := inst.run(b.tr, sp, idLadder+r)
		sp.End()
		extras := inst.extras()
		inst.close()
		res.Attempted += u.attempted
		res.Failed += u.failed
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, err.Error())
			continue
		}
		var lat []float64
		for _, l := range u.latencies {
			lat = append(lat, l.Seconds()*1e3)
		}
		rate := float64(cfg.PacksPerTick*cfg.EventsPerPack) / cfg.Tick.Seconds()
		// The backlog grows when the last quarter of the ticks started
		// later than one tick behind, at the median.
		tail := inst.lateness[len(inst.lateness)*3/4:]
		var tailMs []float64
		for _, l := range tail {
			tailMs = append(tailMs, l.Seconds()*1e3)
		}
		growing := inst.overrun || Median(tailMs) > cfg.Tick.Seconds()*1e3
		ok := !growing && len(lat) > 0 && Percentile(lat, 90) <= limitMs
		fmt.Fprintf(b.log, "#   %4.1fx %9.0f ev/s  p50 %8.3f ms  p90 %8.3f ms  tail lateness %8.3f ms  %s\n",
			mult, rate, Percentile(lat, 50), Percentile(lat, 90), Median(tailMs), map[bool]string{true: "ok", false: "NOT sustained"}[ok])
		if ok && rate > sustainable {
			sustainable = rate
		}
		if mult == 1 {
			lo, hi := idLadder+r, idLadder+r+1
			diff := b.tr.durations("client.Client.Diff", lo, hi)
			b.set("client.diff_ms_p50", Percentile(diff, 50)*1e3)
			b.set("client.diff_ms_p98", Percentile(diff, 98)*1e3)
			b.set("client.diff_apply_ms_p50", Median(b.tr.durations("client.DiffReplayer.Apply", lo, hi))*1e3)
			b.set("client.snapshot_ms_p50", Median(b.tr.durations("client.Client.Snapshot", lo, hi))*1e3)
			b.out["client.state_bytes_per_diff"] = extras["client.state_bytes_per_diff"]
			b.out["harness.gen_lateness_ms_p99"] = extras["harness.gen_lateness_ms_p99"]
		}
	}
	b.set("serviced.sustainable_events_per_s", sustainable)
	return nil
}
