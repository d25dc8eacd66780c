package analysis

import (
	"testing"
	"testing/quick"

	"repro/internal/blackboard"
	"repro/internal/trace"
)

func newBoard(t *testing.T) *blackboard.Blackboard {
	t.Helper()
	bb := blackboard.New(blackboard.Config{Workers: 4})
	t.Cleanup(bb.Close)
	return bb
}

// buildPack encodes events into one pack for the given app/rank.
func buildPack(appID uint32, rank int32, events ...trace.Event) []byte {
	b := trace.NewPackBuilder(appID, rank, 48, 1<<20)
	for i := range events {
		b.Add(&events[i])
	}
	return b.Take()
}

func sendEvent(rank, peer int32, size int64, t0, t1 int64) trace.Event {
	return trace.Event{Kind: trace.KindSend, Rank: rank, Peer: peer, Tag: 0, Size: size, TStart: t0, TEnd: t1}
}

func TestPipelineUnpacksAndProfiles(t *testing.T) {
	bb := newBoard(t)
	p, err := NewPipeline(bb, "appA", 4)
	if err != nil {
		t.Fatal(err)
	}
	p.PostPack(buildPack(0, 0,
		sendEvent(0, 1, 100, 0, 10),
		sendEvent(0, 2, 200, 10, 30),
		trace.Event{Kind: trace.KindBarrier, Rank: 0, Peer: -1, TStart: 30, TEnd: 45},
	))
	p.PostPack(buildPack(0, 1, sendEvent(1, 0, 50, 0, 5)))
	bb.Drain()

	if p.Profiler.Events() != 4 {
		t.Fatalf("events = %d", p.Profiler.Events())
	}
	st := p.Profiler.Stat(trace.KindSend)
	if st.Hits != 3 || st.Bytes != 350 || st.TimeNs != 35 {
		t.Fatalf("send stat = %+v", st)
	}
	if st := p.Profiler.Stat(trace.KindBarrier); st.Hits != 1 || st.TimeNs != 15 {
		t.Fatalf("barrier stat = %+v", st)
	}
}

func TestTopologyMatrixFromEvents(t *testing.T) {
	bb := newBoard(t)
	p, err := NewPipeline(bb, "appA", 3)
	if err != nil {
		t.Fatal(err)
	}
	p.PostPack(buildPack(0, 0,
		sendEvent(0, 1, 100, 0, 1),
		sendEvent(0, 1, 100, 1, 2),
		sendEvent(0, 2, 300, 2, 3),
		// Incoming p2p must not double-count the edge.
		trace.Event{Kind: trace.KindRecv, Rank: 0, Peer: 1, Size: 999, TStart: 0, TEnd: 1},
	))
	bb.Drain()
	mat := p.Topology.Matrix()
	if h, b, _ := mat.At(0, 1); h != 2 || b != 200 {
		t.Fatalf("0->1 = hits %d bytes %d", h, b)
	}
	if h, b, _ := mat.At(0, 2); h != 1 || b != 300 {
		t.Fatalf("0->2 = hits %d bytes %d", h, b)
	}
	if h, _, _ := mat.At(1, 0); h != 0 {
		t.Fatal("recv events must not create sender edges")
	}
	if mat.Degree(0) != 2 || mat.Degree(1) != 0 {
		t.Fatalf("degrees wrong: %d %d", mat.Degree(0), mat.Degree(1))
	}
	if mat.TotalBytes() != 500 {
		t.Fatalf("total bytes = %d", mat.TotalBytes())
	}
	edges := 0
	mat.Edges(func(s, d int, h, b, tm int64) { edges++ })
	if edges != 2 {
		t.Fatalf("edges = %d", edges)
	}
}

func TestDensityMaps(t *testing.T) {
	bb := newBoard(t)
	p, err := NewPipeline(bb, "appA", 4)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 sends twice, rank 1 once; rank 2 waits 100ns; rank 3 in a
	// barrier for 50ns.
	p.PostPack(buildPack(0, 0, sendEvent(0, 1, 10, 0, 1), sendEvent(0, 1, 20, 1, 2)))
	p.PostPack(buildPack(0, 1, sendEvent(1, 0, 30, 0, 1)))
	p.PostPack(buildPack(0, 2, trace.Event{Kind: trace.KindWait, Rank: 2, Peer: -1, TStart: 0, TEnd: 100}))
	p.PostPack(buildPack(0, 3, trace.Event{Kind: trace.KindBarrier, Rank: 3, Peer: -1, TStart: 0, TEnd: 50}))
	bb.Drain()

	hits := p.Density.Map(trace.KindSend, MetricHits)
	if hits[0] != 2 || hits[1] != 1 || hits[2] != 0 {
		t.Fatalf("send hits map = %v", hits)
	}
	bytes := p.Density.P2PSizeMap()
	if bytes[0] != 30 || bytes[1] != 30 {
		t.Fatalf("p2p size map = %v", bytes)
	}
	waits := p.Density.WaitTimeMap()
	if waits[2] != 100 || waits[0] != 0 {
		t.Fatalf("wait map = %v", waits)
	}
	colls := p.Density.CollectiveTimeMap()
	if colls[3] != 50 || colls[2] != 0 {
		t.Fatalf("collective map = %v", colls)
	}
}

func TestDispatcherRoutesByAppID(t *testing.T) {
	bb := newBoard(t)
	d, err := NewDispatcher(bb)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := d.AddApp(1, "appA", 2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := d.AddApp(2, "appB", 2)
	if err != nil {
		t.Fatal(err)
	}
	d.PostRaw(buildPack(1, 0, sendEvent(0, 1, 111, 0, 1)))
	d.PostRaw(buildPack(2, 0, sendEvent(0, 1, 222, 0, 1), sendEvent(0, 1, 222, 1, 2)))
	bb.Drain()
	if pa.Profiler.Events() != 1 || pb.Profiler.Events() != 2 {
		t.Fatalf("events: A=%d B=%d", pa.Profiler.Events(), pb.Profiler.Events())
	}
	if st := pa.Profiler.Stat(trace.KindSend); st.Bytes != 111 {
		t.Fatalf("appA bytes = %d", st.Bytes)
	}
	if st := pb.Profiler.Stat(trace.KindSend); st.Bytes != 444 {
		t.Fatalf("appB bytes = %d", st.Bytes)
	}
	if d.Pipeline(1) != pa || d.Pipeline(99) != nil {
		t.Fatal("pipeline lookup wrong")
	}
}

func TestModuleMerge(t *testing.T) {
	a, b := NewProfilerModule(2), NewProfilerModule(2)
	ev := sendEvent(0, 1, 100, 0, 10)
	a.Add(&ev)
	b.Add(&ev)
	b.Add(&ev)
	a.Merge(b)
	if st := a.Stat(trace.KindSend); st.Hits != 3 || st.Bytes != 300 {
		t.Fatalf("merged profiler = %+v", st)
	}

	ta, tb := NewTopologyModule(2), NewTopologyModule(2)
	ta.Add(&ev)
	tb.Add(&ev)
	ta.Merge(tb)
	if h, bts, _ := ta.Matrix().At(0, 1); h != 2 || bts != 200 {
		t.Fatalf("merged topology = %d %d", h, bts)
	}

	da, db := NewDensityModule(2), NewDensityModule(2)
	da.Add(&ev)
	db.Add(&ev)
	da.Merge(db)
	if m := da.Map(trace.KindSend, MetricHits); m[0] != 2 {
		t.Fatalf("merged density = %v", m)
	}
}

func TestOutOfRangeRanksIgnored(t *testing.T) {
	topo := NewTopologyModule(2)
	dens := NewDensityModule(2)
	bad := sendEvent(5, 1, 10, 0, 1)
	topo.Add(&bad)
	dens.Add(&bad)
	badPeer := sendEvent(0, 7, 10, 0, 1)
	topo.Add(&badPeer)
	if topo.Matrix().TotalBytes() != 0 {
		t.Fatal("out-of-range events must be dropped")
	}
	if m := dens.Map(trace.KindSend, MetricHits); m[0] != 0 && m[1] != 0 {
		t.Fatalf("density accepted bad rank: %v", m)
	}
}

// Property: for any event set, the profiler's per-kind hit counts sum to
// the number of events, and topology total bytes equal the sum of outgoing
// p2p sizes.
func TestAccountingConservationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		const size = 8
		bb := blackboard.New(blackboard.Config{Workers: 3})
		defer bb.Close()
		p, err := NewPipeline(bb, "x", size)
		if err != nil {
			return false
		}
		builder := trace.NewPackBuilder(0, 0, 48, 1<<18)
		var wantEvents int64
		var wantP2PBytes int64
		kinds := trace.Kinds()
		for _, v := range raw {
			k := kinds[int(v)%len(kinds)]
			ev := trace.Event{
				Kind: k,
				Rank: int32(v % size), Peer: int32((v / 8) % size),
				Size: int64(v % 1000), TStart: 0, TEnd: int64(v % 50),
			}
			builder.Add(&ev)
			wantEvents++
			if k.IsOutgoingP2P() {
				wantP2PBytes += ev.Size
			}
		}
		if buf := builder.Take(); buf != nil {
			p.PostPack(buf)
		}
		bb.Drain()
		var gotEvents int64
		for _, k := range p.Profiler.Kinds() {
			gotEvents += p.Profiler.Stat(k).Hits
		}
		return gotEvents == wantEvents && p.Topology.Matrix().TotalBytes() == wantP2PBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPipelineThroughput(b *testing.B) {
	bb := blackboard.New(blackboard.Config{Workers: 8})
	defer bb.Close()
	p, err := NewPipeline(bb, "bench", 64)
	if err != nil {
		b.Fatal(err)
	}
	builder := trace.NewPackBuilder(0, 0, 48, 1<<20)
	var pack []byte
	for i := 0; ; i++ {
		ev := sendEvent(int32(i%64), int32((i+1)%64), 1000, int64(i), int64(i+3))
		if builder.Add(&ev) {
			pack = builder.Take()
			break
		}
	}
	b.SetBytes(int64(len(pack)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PostPack(pack)
	}
	bb.Drain()
}

func TestGarbagePackIsolated(t *testing.T) {
	// An undecodable pack makes the fold KS panic; the engine isolates
	// the fault and keeps processing good packs (failure injection).
	bb := newBoard(t)
	p, err := NewPipeline(bb, "app", 2)
	if err != nil {
		t.Fatal(err)
	}
	p.PostPack([]byte("this is not a pack"))
	p.PostPack(buildPack(0, 0, sendEvent(0, 1, 64, 0, 1)))
	bb.Drain()
	if got := bb.Stats().OpPanics; got != 1 {
		t.Fatalf("panics = %d", got)
	}
	if p.Profiler.Events() != 1 {
		t.Fatalf("good pack lost: events = %d", p.Profiler.Events())
	}
}

func TestDispatcherUnknownAppIsolated(t *testing.T) {
	bb := newBoard(t)
	d, err := NewDispatcher(bb)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := d.AddApp(1, "known", 2)
	if err != nil {
		t.Fatal(err)
	}
	d.PostRaw(buildPack(99, 0, sendEvent(0, 1, 1, 0, 1))) // unregistered app
	d.PostRaw(buildPack(1, 0, sendEvent(0, 1, 1, 0, 1)))
	bb.Drain()
	if bb.Stats().OpPanics != 1 {
		t.Fatalf("panics = %d", bb.Stats().OpPanics)
	}
	if pa.Profiler.Events() != 1 {
		t.Fatal("known app's pack lost")
	}
}
