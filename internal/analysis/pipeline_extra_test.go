package analysis

import (
	"bytes"
	"testing"

	"repro/internal/blackboard"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestDispatcherPartialPath drives the tree root's hand-off in one process:
// a leaf-style partial is encoded and absorbed by the dispatcher, which
// routes it by the header's application id and merges it from its bytes.
func TestDispatcherPartialPath(t *testing.T) {
	bb := blackboard.New(blackboard.Config{Workers: 2})
	defer bb.Close()
	d, err := NewDispatcher(bb)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.AddApp(7, "app7", 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.level != "app7" {
		t.Fatalf("level = %q", p.level)
	}
	if _, err := p.EnableWaitState(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableTemporal(1_000_000); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableCallsites(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableSizes(); err != nil {
		t.Fatal(err)
	}
	opts := p.PartialOptions()
	want := PartialOptions{AppSize: 4, WaitState: true, TemporalWindowNs: 1_000_000, Callsites: true, Sizes: true}
	if opts != want {
		t.Fatalf("partial options = %+v, want %+v", opts, want)
	}

	leaf := NewPartial(7, opts)
	const n = 32
	for i := 0; i < n; i++ {
		ev := trace.Event{Kind: trace.KindIsend, Rank: int32(i % 4), Peer: int32((i + 1) % 4),
			Tag: 1, Comm: 1, Ctx: 5, Size: 256, TStart: int64(i) * 1000, TEnd: int64(i)*1000 + 400}
		leaf.AddEvent(&ev)
	}
	leaf.AddAudit([]trace.AuditEntry{{Kind: trace.KindIsend, Shed: 4, Kept: n}})
	buf := leaf.Flush(nil, true)
	if id, err := PartialAppID(buf); err != nil || id != 7 {
		t.Fatalf("PartialAppID = %d, %v", id, err)
	}
	if err := d.AbsorbEncoded(buf); err != nil {
		t.Fatal(err)
	}
	if p.Profiler.Events() != n {
		t.Fatalf("absorbed %d events, want %d", p.Profiler.Events(), n)
	}
	if st := p.Completeness.Stat(trace.KindIsend); st.Shed != 4 || st.Kept != n {
		t.Fatalf("absorbed shed stat = %+v", st)
	}

	// What cannot be routed or merged is an error, and changes nothing.
	before := pipelineCanonical(p)
	stranger := NewPartial(8, opts).Flush(nil, true)
	for name, bad := range map[string][]byte{
		"unregistered app": stranger,
		"truncated body":   buf[:len(buf)-5],
		"truncated header": buf[:10],
		"not a partial":    []byte("these are not the bytes of a partial"),
	} {
		if err := d.AbsorbEncoded(bad); err == nil {
			t.Errorf("%s: absorbed without an error", name)
		}
	}
	if !bytes.Equal(pipelineCanonical(p), before) {
		t.Error("a refused partial changed the state")
	}
}

// TestPipelineCodecTelemetry pins the codec accounting on both decode
// paths: the fold KS (board path) and FoldPack (fused path) must each
// record their pack's event count.
func TestPipelineCodecTelemetry(t *testing.T) {
	bb := blackboard.New(blackboard.Config{Workers: 1})
	defer bb.Close()
	p, err := NewPipeline(bb, "app", 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	p.SetCodecTelemetry(telemetry.NewCodecMetrics(reg))

	ev := trace.Event{Kind: trace.KindSend, Rank: 0, Peer: 1, Size: 8, TStart: 1, TEnd: 2}
	v2 := trace.NewPackBuilderV2(1, 0, trace.MinRecordSize, 1<<12)
	v2.Add(&ev)
	p.PostPack(v2.Take())
	bb.Drain()
	if p.Profiler.Events() != 1 {
		t.Fatalf("board path analyzed %d events", p.Profiler.Events())
	}

	v3 := trace.NewPackBuilderV3(1, 0, trace.MinRecordSize, 1<<12)
	v3.Add(&ev)
	var dec trace.StreamDecoder
	n, err := p.FoldPack(&dec, v3.Take())
	if err != nil || n != 1 {
		t.Fatalf("fused fold = %d events, err %v", n, err)
	}
	if p.Profiler.Events() != 2 {
		t.Fatalf("fused path analyzed %d events total", p.Profiler.Events())
	}
	if _, err := p.FoldPack(&dec, []byte("garbage")); err == nil {
		t.Fatal("garbage pack folded without error")
	}
}

// TestEngineHealthKS feeds the self-telemetry KS one encoded snapshot and
// two junk payloads: the snapshot accumulates and reaches the observer,
// the junk is ignored rather than killing the KS.
func TestEngineHealthKS(t *testing.T) {
	bb := blackboard.New(blackboard.Config{Workers: 1})
	defer bb.Close()
	var observed []uint64
	k, err := NewEngineHealthKS(bb, func(s *telemetry.Snapshot) { observed = append(observed, s.Seq) })
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	reg.Counter("engine.test.count").Add(5)
	k.PostMeta(reg.EncodeSnapshot(nil, 1, 1000, 0))
	bb.Post(blackboard.TypeID("", TypeMeta), 1, "not a snapshot")
	k.PostMeta([]byte{1, 2, 3})
	bb.Drain()
	if k.Snapshots() != 1 || len(observed) != 1 || observed[0] != 1 {
		t.Fatalf("snapshots = %d, observed %v, want 1 and [1]", k.Snapshots(), observed)
	}
	if sum := k.Summary(); len(sum.Metrics) == 0 {
		t.Fatal("summary lost the accumulated series")
	}
}

// TestMetricLabels pins the report labels and small accessors the render
// layer relies on.
func TestMetricLabels(t *testing.T) {
	cases := map[Metric]string{
		MetricHits:  "hits",
		MetricBytes: "total size",
		MetricTime:  "time",
		Metric(99):  "unknown",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Fatalf("Metric(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
	if NewDensityModule(8).size != 8 {
		t.Fatal("density size accessor")
	}
}
