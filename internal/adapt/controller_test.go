package adapt

import (
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/blackboard"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

type fakeWindow struct{ reqs []int }

func (f *fakeWindow) RequestWindow(n int) { f.reqs = append(f.reqs, n) }

// snap is one observation whose NIC backlog peaked at its last value.
func snap(stalls, bytesW, bytesR, backlogNs int64) Signals {
	return Signals{Stalls: stalls, BytesWritten: bytesW, BytesRead: bytesR, BacklogNs: backlogNs, BacklogMaxNs: backlogNs}
}

// admitted offers n events of class k to the gate as one pack and counts
// the ones it lets through.
func admitted(g *Gate, k trace.Kind, n int) int {
	kept := 0
	for _, ok := range admitPack(g, repeat(k, n)...) {
		if ok {
			kept++
		}
	}
	return kept
}

func TestControllerEscalatesOnStalls(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewController(0, telemetry.NewControllerMetrics(reg))
	g := c.NewGate()
	w := &fakeWindow{}
	c.AddStream(w)
	c.AddStream(nil) // must be ignored
	if got := w.reqs; len(got) != 1 || got[0] != 3 {
		t.Fatalf("initial window requests %v, want [3]", got)
	}
	if c.PackVersion() != trace.PackV1 || c.Level() != 0 {
		t.Fatalf("fresh controller at v%d level %d", c.PackVersion(), c.Level())
	}

	c.Observe(snap(100, 0, 0, 0)) // seeds baselines: the absolute count is not a delta
	if c.Level() != 0 {
		t.Fatalf("seed snapshot escalated to %d", c.Level())
	}

	// One new stall per snapshot climbs the ladder a level at a time.
	for i, want := range []int{1, 2, 3, 4, 4} {
		c.Observe(snap(int64(101+i), 0, 0, 0))
		if c.Level() != want {
			t.Fatalf("snapshot %d: level %d, want %d", i, c.Level(), want)
		}
	}
	if esc := reg.Counter("adapt.escalations").Value(); c.MaxLevelSeen() != 4 || esc != 4 {
		t.Fatalf("maxSeen %d escalations %d", c.MaxLevelSeen(), esc)
	}
	if c.PackVersion() != trace.PackV3 {
		t.Fatalf("deep-overload controller streaming v%d, want the v3 stream dictionary", c.PackVersion())
	}
	if last := w.reqs[len(w.reqs)-1]; last != 8 {
		t.Fatalf("window under overload %d, want 8", last)
	}
	// L4 plan: async classes closed, p2p and POSIX sampled 1-in-64,
	// collectives and Init/Finalize untouched — they anchor the profile.
	for k, want := range map[trace.Kind]int{
		trace.KindIsend:      0,
		trace.KindSend:       2,
		trace.KindPosixWrite: 2,
		trace.KindAllreduce:  128,
		trace.KindInit:       128,
		trace.KindFinalize:   128,
	} {
		if got := admitted(g, k, 128); got != want {
			t.Fatalf("%s: L4 gate admitted %d of 128, want %d", k, got, want)
		}
	}
}

func TestControllerPanicJumpsToMax(t *testing.T) {
	c := NewController(0, nil)
	c.Observe(snap(0, 0, 0, 0)) // seed
	c.Observe(snap(32, 0, 0, 0))
	if c.Level() != 4 {
		t.Fatalf("stall burst reached level %d, want 4", c.Level())
	}
}

func TestControllerBacklogSignals(t *testing.T) {
	c := NewController(1000, nil)
	c.Observe(snap(0, 0, 0, 0)) // seed

	// Byte backlog at the overload line escalates one level.
	c.Observe(snap(0, 1500, 500, 0))
	if c.Level() != 1 {
		t.Fatalf("backlog at line: level %d, want 1", c.Level())
	}
	// Twice the line jumps straight to the top.
	c.Observe(snap(0, 2500, 500, 0))
	if c.Level() != 4 {
		t.Fatalf("2x backlog: level %d, want 4", c.Level())
	}
	// Hysteresis: backlog below the line but above a quarter of it holds
	// the level, regardless of how many snapshots pass.
	for i := 0; i < 10; i++ {
		c.Observe(snap(0, 1000, 500, 0))
	}
	if c.Level() != 4 {
		t.Fatalf("hysteresis band relaxed to %d", c.Level())
	}
	// A drained queue relaxes one level per CalmSnapshots.
	calmed := func() { c.Observe(snap(0, 1000, 900, 0)) }
	for level := 3; level >= 0; level-- {
		calmed()
		calmed()
		if c.Level() != level {
			t.Fatalf("after calm pair: level %d, want %d", c.Level(), level)
		}
	}
	// Fully relaxed: transport knobs restored.
	if c.PackVersion() != trace.PackV1 || c.FlushEvery() != 0 {
		t.Fatalf("relaxed controller kept v%d cadence %d", c.PackVersion(), c.FlushEvery())
	}
}

// TestControllerDefaultBacklogLine: a line of 0 (and below) means 256 KiB.
func TestControllerDefaultBacklogLine(t *testing.T) {
	for _, line := range []int64{0, -1} {
		c := NewController(line, nil)
		c.Observe(snap(0, 0, 0, 0)) // seed
		c.Observe(snap(0, 256<<10-1, 0, 0))
		if c.Level() != 0 {
			t.Fatalf("line %d: backlog under 256 KiB escalated to %d", line, c.Level())
		}
		c.Observe(snap(0, 256<<10, 0, 0))
		if c.Level() != 1 {
			t.Fatalf("line %d: backlog of 256 KiB: level %d, want 1", line, c.Level())
		}
	}
}

func TestControllerNICBacklogEscalates(t *testing.T) {
	c := NewController(0, nil)
	c.Observe(snap(0, 0, 0, 0)) // seed
	c.Observe(snap(0, 0, 0, backlogHighNs-1))
	if c.Level() != 0 {
		t.Fatalf("NIC backlog under the line: level %d, want 0", c.Level())
	}
	c.Observe(snap(0, 0, 0, backlogHighNs))
	if c.Level() != 1 {
		t.Fatalf("NIC backlog at the line: level %d, want 1", c.Level())
	}
}

// TestControllerNICSpikeRelaxes: one NIC backlog spike escalates once. The
// gauge's high-water mark keeps reading the spike afterwards, but calm
// snapshots must still relax the controller back to level 0.
func TestControllerNICSpikeRelaxes(t *testing.T) {
	spike := int64(60 * time.Millisecond)
	c := NewController(0, nil)
	c.Observe(Signals{}) // seed
	c.Observe(Signals{BacklogNs: spike, BacklogMaxNs: spike})
	level := c.Level()
	if level != 1 {
		t.Fatalf("NIC spike: level %d, want 1", level)
	}
	calm := Signals{BacklogNs: int64(time.Millisecond), BacklogMaxNs: spike}
	for i := 0; i < 2*level; i++ { // CalmSnapshots per level
		c.Observe(calm)
	}
	if c.Level() != 0 {
		t.Fatalf("level %d after %d calm snapshots behind one spike, want 0", c.Level(), 2*level)
	}
	for i := 0; i < 10; i++ {
		c.Observe(calm)
	}
	if c.Level() != 0 || c.MaxLevelSeen() != 1 {
		t.Fatalf("calm run at level %d (max %d), want 0 (max 1)", c.Level(), c.MaxLevelSeen())
	}
}

func TestControllerFlushCadence(t *testing.T) {
	c := NewController(0, nil)
	if c.FlushEvery() != 0 {
		t.Fatalf("L0 cadence %d, want 0 (the tree's static cadence)", c.FlushEvery())
	}
	c.Observe(snap(0, 0, 0, 0)) // seed
	c.Observe(snap(1, 0, 0, 0))
	if c.FlushEvery() != 16 {
		t.Fatalf("L1 cadence %d, want 16", c.FlushEvery())
	}
	c.Observe(snap(2, 0, 0, 0))
	if c.FlushEvery() != 32 {
		t.Fatalf("L2 cadence %d, want 32", c.FlushEvery())
	}
	c.Observe(snap(3, 0, 0, 0))
	if c.FlushEvery() != 32 {
		t.Fatalf("L3 cadence %d, want 32", c.FlushEvery())
	}
}

func TestControllerGatesProgrammedLate(t *testing.T) {
	// A gate created after escalation starts under the current plan, and
	// TotalShed aggregates across every gate.
	c := NewController(0, nil)
	c.Observe(snap(0, 0, 0, 0))
	c.Observe(snap(32, 0, 0, 0)) // L4
	g := c.NewGate()
	if admitted(g, trace.KindIsend, 1) != 0 {
		t.Fatal("late gate admitted an async event the active plan sheds")
	}
	g2 := c.NewGate()
	admitted(g2, trace.KindIsend, 1)
	if c.TotalShed() != 2 {
		t.Fatalf("TotalShed %d, want 2", c.TotalShed())
	}
}

// TestControllerThroughBlackboard drives the control loop the way the
// engine does: snapshots encoded by a real registry, posted as meta
// entries on a real board, decoded by the engine-health knowledge source
// and handed to the controller.
func TestControllerThroughBlackboard(t *testing.T) {
	bb := blackboard.New(blackboard.Config{Workers: 2})
	defer bb.Close()

	reg := telemetry.NewRegistry()
	stalls := reg.Counter("stream.write_stalls")

	c := NewController(0, telemetry.NewControllerMetrics(reg))
	health, err := analysis.NewEngineHealthKS(bb, func(s *telemetry.Snapshot) { c.Observe(SignalsOf(s)) })
	if err != nil {
		t.Fatal(err)
	}
	post := func(seq uint64) {
		health.PostMeta(reg.EncodeSnapshot(nil, seq, int64(seq)*1e6, 0))
		bb.Drain()
	}

	post(1) // seed
	if c.Decisions() != 1 {
		t.Fatalf("decisions %d, want 1 (seed observed)", c.Decisions())
	}
	stalls.Add(5)
	post(2)
	if c.Level() != 1 {
		t.Fatalf("level %d after stall delta through the board, want 1", c.Level())
	}

	// Garbage must not kill the loop: wrong payload type, truncated bytes.
	metaT := blackboard.TypeID("", analysis.TypeMeta)
	bb.Post(metaT, 3, "not bytes")
	bb.Post(metaT, 3, []byte{1, 2, 3})
	bb.Drain()
	stalls.Add(5)
	post(3)
	if c.Level() != 2 || c.Decisions() != 3 {
		t.Fatalf("level %d after %d decisions with garbage interleaved, want 2 after 3", c.Level(), c.Decisions())
	}

	// Duplicate registration fails cleanly.
	if _, err := analysis.NewEngineHealthKS(bb, nil); err == nil {
		t.Fatal("second engine-health KS registered on the same board")
	}
}
