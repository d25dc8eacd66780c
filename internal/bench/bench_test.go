package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/serviced"
	"repro/internal/trace"
)

// smallCorpus is an ingest-shaped corpus small enough for unit tests.
var smallCorpus = CorpusConfig{Writers: 4, EventsPerWriter: 2048, EventsPerPack: 64, PackVersion: trace.PackV3}

func TestCorpusIsAPureFunctionOfTheSeed(t *testing.T) {
	a, err := BuildCorpus(smallCorpus, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCorpus(smallCorpus, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed built different corpora")
	}
	c, err := BuildCorpus(smallCorpus, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Packs, c.Packs) {
		t.Fatal("different seeds built the same packs")
	}
	if want := int64(smallCorpus.Writers * smallCorpus.EventsPerWriter); a.Events != want || c.Events != want {
		t.Fatalf("events %d / %d, want %d", a.Events, c.Events, want)
	}
	if want := smallCorpus.Writers * smallCorpus.EventsPerWriter / smallCorpus.EventsPerPack; len(a.Packs) != want {
		t.Fatalf("%d packs, want %d", len(a.Packs), want)
	}
	// Round-robin interleaving: writer order repeats, so each writer's
	// packs stay in emission order.
	for k, pk := range a.Packs {
		if int(pk.Src) != k%smallCorpus.Writers {
			t.Fatalf("pack %d belongs to writer %d, want %d", k, pk.Src, k%smallCorpus.Writers)
		}
	}
	// Seeds change jitter, not shape: the encoded size moves by well
	// under the wire_bytes_per_event bound.
	if d := math.Abs(float64(a.WireBytes-c.WireBytes)) / float64(a.WireBytes); d > 0.005 {
		t.Fatalf("wire bytes differ by %.3f%% between seeds", d*100)
	}
}

func TestGeneratedStreamPairsItsMessages(t *testing.T) {
	in, err := buildIngestInputs(smallCorpus, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := foldReference(in.corpus, liveOptions(smallCorpus.Writers))
	if err != nil {
		t.Fatal(err)
	}
	if ref.partial.Waits.Pairs() == 0 {
		t.Fatal("wait-state module paired nothing: generator's Wait events do not match its Isends")
	}
}

func TestMedianPercentileQuartiles(t *testing.T) {
	vs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := Median(vs); got != 5.5 {
		t.Fatalf("median %g", got)
	}
	if !sort.Float64sAreSorted([]float64{vs[1], vs[3]}) || vs[0] != 9 {
		t.Fatal("helpers modified their input")
	}
	if got := Percentile(vs, 90); math.Abs(got-9.1) > 1e-12 {
		t.Fatalf("p90 %g", got)
	}
	if got := Percentile(vs, 0); got != 1 {
		t.Fatalf("p0 %g", got)
	}
	if got := Percentile(vs, 100); got != 10 {
		t.Fatalf("p100 %g", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty percentile %g", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := Quartiles(vs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %g %g", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := Quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q3 != 12 {
		t.Fatalf("quartiles %g %g", q1, q3)
	}
}

func TestNormalise(t *testing.T) {
	nominal := time.Duration(RefNominalS * float64(time.Second))
	if got := Normalise(time.Second, nominal, nominal); math.Abs(got-1) > 1e-9 {
		t.Fatalf("nominal-speed machine: %g", got)
	}
	// A machine running the reference kernel twice as slowly ran the pass
	// twice as slowly too.
	if got := Normalise(2*time.Second, 2*nominal, 2*nominal); math.Abs(got-1) > 1e-9 {
		t.Fatalf("half-speed machine: %g", got)
	}
	if got := Normalise(time.Second, nominal, 3*nominal); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("mean of the bracketing runs: %g", got)
	}
	if d := RefKernel(); d.Wall <= 0 || d.CPU <= 0 {
		t.Fatalf("reference kernel took %+v", d)
	}
}

func TestOpenLoopTimesFromTheDueStamp(t *testing.T) {
	const tick = 2 * time.Millisecond
	const stall = 30 * time.Millisecond
	start := time.Now()
	var dues []time.Time
	var atStalled time.Duration
	late, err := openLoop(start, tick, 12, 0, func(i int, due time.Time) error {
		dues = append(dues, due)
		if i == 3 {
			time.Sleep(stall) // a send that blocks, as on an exhausted credit window
		}
		if i == 4 {
			atStalled = time.Since(due)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dues {
		if want := start.Add(time.Duration(i) * tick); !d.Equal(want) {
			t.Fatalf("tick %d due %v, want %v: the schedule slipped", i, d.Sub(start), want.Sub(start))
		}
	}
	// Only lower bounds are asserted: a sleep never returns early, so they
	// hold however slow or busy the machine is. The stalled send returns
	// no sooner than start+3*tick+stall, and every later tick was due
	// before that, so each starts late by at least the difference, and a
	// latency taken from its due stamp includes the wait the stall imposed.
	for i := 4; i < 12; i++ {
		if least := stall - time.Duration(i-3)*tick; late[i] < least {
			t.Fatalf("tick %d reported %v late after a %v stall, want at least %v", i, late[i], stall, least)
		}
	}
	if atStalled < stall-tick {
		t.Fatalf("latency from the due stamp %v does not include the stall", atStalled)
	}

	// With a lateness limit the loop gives up instead.
	n := 0
	_, err = openLoop(time.Now(), tick, 50, 5*tick, func(i int, due time.Time) error {
		n++
		time.Sleep(4 * tick)
		return nil
	})
	if !errors.Is(err, errBacklog) || n >= 50 {
		t.Fatalf("overloaded loop: err %v after %d ticks", err, n)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "pass", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 2, Parent: 0, Name: "b", StartNs: 20, EndNs: 50},  // overlaps a: covered once
		{ID: 3, Parent: 0, Name: "c", StartNs: 90, EndNs: 120}, // clipped to the parent
		{ID: 4, Parent: 1, Name: "a.child", StartNs: 12, EndNs: 18},
		{ID: 5, Parent: 0, Name: "open", StartNs: 60, EndNs: -1}, // never closed
	}
	got := SelfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}

	tr := NewTracer()
	pass := tr.Begin(Root, "pass", 7)
	call := tr.Begin(pass, "call", 7)
	time.Sleep(time.Millisecond)
	call.End()
	pass.End()
	var off *Tracer
	off.Begin(Root, "ignored", 0).End() // tracing off: no-ops
	tot := tr.Totals()
	if len(tot) != 2 || tot[0].Name != "pass" || tot[0].Count != 1 {
		t.Fatalf("totals %+v", tot)
	}
	if tot[0].SelfNs != tot[0].TotalNs-tot[1].TotalNs {
		t.Fatalf("pass self %d, total %d, child %d", tot[0].SelfNs, tot[0].TotalNs, tot[1].TotalNs)
	}
	if ds := tr.durations("call", 7, 8); len(ds) != 1 || ds[0] < 1e-3 {
		t.Fatalf("durations %v", ds)
	}
	path := t.TempDir() + "/sub/spans.json"
	if err := tr.WriteFile(path, map[string]any{"workload": "test"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) != 2 || doc.Spans[1].Parent != 0 || doc.Spans[1].Unit != 7 {
		t.Fatalf("span file %s: %v", raw, err)
	}
}

func TestBenchmarkJSONListsWhatTheBinaryPrints(t *testing.T) {
	// BENCHMARK.json is generated from the tables the binary prints from;
	// when the two are out of step the failure prints the file to check in.
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, BenchmarkJSON()) {
		t.Fatalf("BENCHMARK.json is out of step with the binary's metric and workload tables; it should read:\n%s", BenchmarkJSON())
	}
	for _, w := range Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	// What an untraced run prints is exactly the end-to-end list.
	m := &measurement{setupS: []float64{1}, samples: []sample{{events: 10, wireBytes: 100, raw: 1, norm: 1, rawCPU: 1, cpu: 1, latRaw: []float64{1}, latN: []float64{1}}}, mallocs: 5}
	for _, w := range Workloads {
		got, _ := endToEnd(w, m)
		if len(got) != len(EndToEnd) {
			t.Errorf("%s prints %d metrics, want %d", w.Name, len(got), len(EndToEnd))
		}
		for _, d := range EndToEnd {
			if v, ok := got[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s: metric %s printed as %+v", w.Name, d.Name, v)
			}
		}
	}
}

func TestFingerprintFile(t *testing.T) {
	if err := checkFingerprint(fingerprintKey("ingest", -12345), "no such seed is listed"); err != nil {
		t.Fatalf("an unlisted seed must pass: %v", err)
	}
	var fps map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &fps); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"ingest:1", "sim"} {
		if _, ok := fps[key]; !ok {
			t.Fatalf("testdata/fingerprints.json has no entry for %s", key)
		}
	}
	if err := checkFingerprint("ingest:1", "wrong"); err == nil {
		t.Fatal("a wrong fingerprint for a listed seed must fail")
	}
}

// The workload drivers, end to end on small inputs: every correctness
// gate of a real run fires here too.
func TestIngestWorkloadsAgreeOnSmallCorpus(t *testing.T) {
	in, err := buildIngestInputs(smallCorpus, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	fused := setupFused(in)
	u, err := fused.run(tr, Root, 0)
	if err != nil || u.failed != 0 || u.events != in.corpus.Events {
		t.Fatalf("fused pass: %+v, %v", u, err)
	}
	if len(u.latencies) == 0 || u.wireBytes != in.corpus.WireBytes {
		t.Fatalf("fused pass took %d latency samples over %d wire bytes", len(u.latencies), u.wireBytes)
	}
	for _, workers := range []int{1, 2} {
		daemon, err := setupDaemon(in, tr, serviced.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		u, err = daemon.run(tr, Root, 1)
		ex := daemon.extras()
		daemon.close()
		if err != nil || u.failed != 0 || u.events != in.corpus.Events {
			t.Fatalf("daemon pass (workers %d): %+v, %v", workers, u, err)
		}
		// Frame headers and the writer id ride on top of the pack bytes.
		if u.wireBytes <= in.corpus.WireBytes {
			t.Fatalf("socket carried %d bytes for %d pack bytes", u.wireBytes, in.corpus.WireBytes)
		}
		if ex["serviced.sessions_aborted"].Value != 0 {
			t.Fatalf("daemon ledger: %+v", ex)
		}
	}
	if len(tr.durations("client.Client.SendPack", 1, 2)) != 2*len(in.corpus.Packs) {
		t.Fatal("traced daemon passes did not record one span per SendPack")
	}

	// A corrupted reference must fail the pass: the gate is live.
	bad := *in
	ref := *in.ref
	ref.rendered = append([]byte("x"), ref.rendered...)
	bad.ref = &ref
	if u, err := setupFused(&bad).run(nil, Root, 0); err == nil || u.failed == 0 {
		t.Fatal("fused pass accepted a report that differs from the reference")
	}
}

func TestLiveSegmentOnSmallConfig(t *testing.T) {
	cfg := LiveConfig{Ranks: 8, EventsPerPack: 16, PreloadPacks: 32, Tick: time.Millisecond, PacksPerTick: 2, PollTicks: 5, SegmentTicks: 20}
	inst, err := setupLive(9, nil, cfg, serviced.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	u, err := inst.run(nil, Root, 0)
	if err != nil || u.failed != 0 {
		t.Fatalf("segment: %+v, %v", u, err)
	}
	if want := cfg.SegmentTicks / cfg.PollTicks; len(u.latencies) != want {
		t.Fatalf("%d latency samples, want %d", len(u.latencies), want)
	}
	if want := int64(cfg.SegmentTicks * cfg.PacksPerTick * cfg.EventsPerPack); u.events != want {
		t.Fatalf("%d paced events, want %d", u.events, want)
	}
	if u.wall < time.Duration(cfg.SegmentTicks-1)*cfg.Tick {
		t.Fatalf("segment of %d ticks took %v", cfg.SegmentTicks, u.wall)
	}
	ex := inst.extras()
	if ex["client.state_bytes_per_diff"].Value <= 0 || len(inst.lateness) != cfg.SegmentTicks {
		t.Fatalf("extras %+v, %d lateness samples", ex, len(inst.lateness))
	}
}
