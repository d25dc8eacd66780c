package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/nas"
)

// TestProfileRunTelemetryEndToEnd is the meta-profiling acceptance test:
// with telemetry enabled, a profiled run streams engine-health snapshots
// over the dedicated VMPI channel, the engine-health KS unpacks them in
// the real blackboard, and the report carries nonzero stream-credit and
// KS-latency series.
func TestProfileRunTelemetryEndToEnd(t *testing.T) {
	p := Tera100()
	w, err := nas.LU(nas.ClassC, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ProfileRun(p, []*nas.Workload{w}, ProfileOptions{
		Analyzers: 1, Workers: 4, PackBytes: 1 << 14,
		Telemetry:       true,
		TelemetryPeriod: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hk := rep.EngineHealth
	if hk == nil {
		t.Fatal("EngineHealth missing from telemetry-enabled report")
	}
	// At least the sampler's parting snapshot plus the host's final one;
	// a 1ms cadence over a multi-ms run produces several more.
	if hk.Snapshots() < 2 {
		t.Fatalf("snapshots = %d, want >= 2", hk.Snapshots())
	}

	// The profiled run itself must still be intact.
	if len(rep.Chapters) != 1 || rep.Chapters[0].Profiler.Events() == 0 {
		t.Fatal("profiled chapter missing or empty")
	}

	series := func(name string) []float64 {
		pts := hk.Acc.Points(name)
		if pts == nil {
			t.Fatalf("series %q missing (have %v)", name, hk.Acc.Names())
		}
		vs := make([]float64, len(pts))
		for i, p := range pts {
			vs[i] = p.Value
		}
		return vs
	}
	maxOf := func(vs []float64) float64 {
		var m float64
		for _, v := range vs {
			if v > m {
				m = v
			}
		}
		return m
	}

	// Nonzero stream-credit series: blocks were in flight at some point.
	if maxOf(series("stream.credits_in_flight.max")) == 0 {
		t.Fatal("stream credits-in-flight high-water never rose above zero")
	}
	// Stream counters saw the pack traffic.
	if last := series("stream.blocks_written"); last[len(last)-1] == 0 {
		t.Fatal("no blocks written according to telemetry")
	}
	// Nonzero KS-latency series: the dispatcher executed jobs and their
	// wall-clock latencies were observed.
	lat := series("bb.ks_latency.dispatcher.count")
	if lat[len(lat)-1] == 0 {
		t.Fatal("dispatcher KS latency histogram is empty")
	}
	// The engine's own traffic flowed through the modeled NIC.
	if last := series("net.messages"); last[len(last)-1] == 0 {
		t.Fatal("no NIC messages according to telemetry")
	}
	// Sink-side pack accounting.
	if last := series("sink.pack_flushes"); last[len(last)-1] == 0 {
		t.Fatal("no pack flushes according to telemetry")
	}

	// The report's engine-health chapter renders those series.
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "engine health") {
		t.Fatal("render missing engine-health chapter")
	}
	if !strings.Contains(out, "stream.credits_in_flight") || !strings.Contains(out, "bb.ks_latency.dispatcher") {
		t.Fatalf("engine-health chapter missing key series:\n%s", out)
	}

	// Dual timestamps: virtual time advances across in-sim snapshots.
	pts := hk.Acc.Points("stream.blocks_written")
	var virtualAdvanced bool
	for i := 1; i < len(pts); i++ {
		if pts[i].VirtualNs > pts[0].VirtualNs {
			virtualAdvanced = true
		}
		if pts[i].WallNs == 0 {
			t.Fatal("snapshot missing wall timestamp")
		}
	}
	if !virtualAdvanced {
		t.Fatal("virtual time never advanced across snapshots")
	}

	// The JSON-facing summary digests every series.
	sum := hk.Summary()
	if sum.Snapshots != hk.Snapshots() || len(sum.Metrics) == 0 {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestTelemetrySeriesGolden pins the values of the series the simulated
// side writes — streams, NIC, sinks and the codec's byte and event counts —
// at every snapshot, virtual timestamp included. Wall-clock series (codec
// ns, KS latency) and the board's host-scheduled ones stay out.
func TestTelemetrySeriesGolden(t *testing.T) {
	const want = "1586d57d51803241a7a285bac19fc295fc2e818b17b6c1e27e7277a09a912d7a"
	w, err := nas.LU(nas.ClassC, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ProfileRun(Tera100(), []*nas.Workload{w}, ProfileOptions{
		Analyzers: 1, Workers: 4, PackBytes: 1 << 14,
		Telemetry: true, TelemetryPeriod: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := &rep.EngineHealth.Acc
	names := acc.Names()
	slices.Sort(names)
	prefixes := []string{"stream.", "net.", "sink.", "codec.encoded_", "codec.wire_bytes", "codec.logical_bytes"}
	h := sha256.New()
	series := 0
	for _, name := range names {
		if !slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(name, p) }) {
			continue
		}
		series++
		fmt.Fprintf(h, "%s\n", name)
		for _, p := range acc.Points(name) {
			fmt.Fprintf(h, "%d %g\n", p.VirtualNs, p.Value)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); series != 29 || got != want {
		t.Fatalf("%d series hash to %s, want 29 hashing to %s", series, got, want)
	}
}

// TestProfileRunTelemetryDisabledUnchanged pins the disabled path: no
// registry, no health chapter, same report shape as the seed.
func TestProfileRunTelemetryDisabledUnchanged(t *testing.T) {
	p := Tera100()
	w, err := nas.LU(nas.ClassC, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ProfileRun(p, []*nas.Workload{w}, ProfileOptions{Analyzers: 1, Workers: 4, PackBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EngineHealth != nil {
		t.Fatal("EngineHealth present on a telemetry-disabled run")
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "engine health") {
		t.Fatal("engine-health chapter rendered without telemetry")
	}
}

// TestProfileRunTelemetryDeterministic guards the scheduler: the dual
// poll loop on the analyzer must not change the simulated outcome of the
// profiled application between identical runs.
func TestProfileRunTelemetryDeterministic(t *testing.T) {
	p := Tera100()
	run := func() (time.Duration, int64) {
		w, err := nas.LU(nas.ClassC, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ProfileRun(p, []*nas.Workload{w}, ProfileOptions{
			Analyzers: 1, Workers: 2, PackBytes: 1 << 14,
			Telemetry: true, TelemetryPeriod: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Chapters[0].WallTime, rep.Chapters[0].Profiler.Events()
	}
	w1, e1 := run()
	w2, e2 := run()
	if w1 != w2 || e1 != e2 {
		t.Fatalf("telemetry run not deterministic: wall %v vs %v, events %d vs %d", w1, w2, e1, e2)
	}
}
