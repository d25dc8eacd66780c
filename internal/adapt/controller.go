package adapt

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// WindowSetter is the slice of vmpi.Stream the controller actuates: a
// goroutine-safe request to retarget the writer's credit window.
type WindowSetter interface {
	RequestWindow(na int)
}

// The control law's thresholds.
const (
	// stallDelta is the per-snapshot increase of stream.write_stalls that
	// counts as overload: any new back-pressure stall.
	stallDelta = 1
	// panicStalls is the per-snapshot stall increase that jumps straight
	// to the top of the ladder instead of stepping.
	panicStalls = 32
	// backlogHighNs is the NIC backlog, in virtual time, treated as
	// overload on its own, stalls or not. The level read is the backlog's
	// peak since the previous snapshot.
	backlogHighNs = int64(50 * time.Millisecond)
	// defaultBacklogHighBytes is the stream byte backlog — bytes_written
	// minus bytes_read across every instrumented stream, i.e. the volume
	// queued between the recorders and the analyzers — treated as
	// overload when NewController is given none. Relaxing requires the
	// backlog to drain below a quarter of the overload level, so the
	// controller holds its level while the analyzers chew through queued
	// packs instead of oscillating.
	defaultBacklogHighBytes = 256 << 10
	// calmSnapshots is how many consecutive calm snapshots must pass
	// before the controller relaxes one level.
	calmSnapshots = 2
	// baseWindow is the credit window at level 0, the paper's NA.
	baseWindow = 3
	// maxWindow is the credit window requested under overload.
	maxWindow = 8
	// maxLevel is the top of the escalation ladder.
	maxLevel = 4
)

// classPlan is one level's gate programming.
type classPlan struct {
	async int32 // Isend/Irecv/Wait/Waitall/Iprobe: bookkeeping, shed first
	p2p   int32 // Send/Recv/Sendrecv: the measurements themselves
	posix int32 // POSIX I/O events
}

// ladder is the escalation policy, indexed by level. Collectives and
// Init/Finalize are never shed: they are rare, and they anchor the
// profile's structure (phase boundaries, barrier wait analysis).
//
//	L0  nominal: admit everything, static transport.
//	L1  transport only: wider credit window, compact v2 packs, coarser
//	    tree flush cadence — no measurement loss yet.
//	L2  sample async bookkeeping 1-in-8.
//	L3  async 1-in-64, point-to-point and POSIX 1-in-8.
//	L4  drop async entirely, point-to-point and POSIX 1-in-64.
var ladder = [maxLevel + 1]classPlan{
	{async: 1, p2p: 1, posix: 1},
	{async: 1, p2p: 1, posix: 1},
	{async: 8, p2p: 1, posix: 1},
	{async: 64, p2p: 8, posix: 8},
	{async: -1, p2p: 64, posix: 64},
}

// Signals is one observation of the engine's health, as far as the control
// law reads it: the stream counters since boot, the NIC backlog gauge and
// the observation's wall clock.
type Signals struct {
	// Stalls, BytesWritten and BytesRead are the cumulative
	// stream.write_stalls, stream.bytes_written and stream.bytes_read.
	Stalls, BytesWritten, BytesRead int64
	// BacklogNs and BacklogMaxNs are the net.nic_backlog_ns gauge's last
	// value and its high-water mark since boot.
	BacklogNs, BacklogMaxNs int64
	// WallNs is the wall clock the observation was taken at (0 = unknown).
	WallNs int64
}

// SignalsOf reads the controller's signals out of one engine-health
// snapshot. Metrics the snapshot does not carry read as zero.
func SignalsOf(s *telemetry.Snapshot) Signals {
	sig := Signals{WallNs: s.WallNs}
	for i := range s.Metrics {
		switch m := &s.Metrics[i]; m.Name {
		case "stream.write_stalls":
			sig.Stalls = m.Value
		case "stream.bytes_written":
			sig.BytesWritten = m.Value
		case "stream.bytes_read":
			sig.BytesRead = m.Value
		case "net.nic_backlog_ns":
			sig.BacklogNs, sig.BacklogMaxNs = m.Value, m.Max
		}
	}
	return sig
}

// Controller is the closed-loop overload governor. It is fed Signals —
// in the engine, by the engine-health knowledge source, from the same
// channel-9 snapshots the engine-health chapter renders — and its
// decisions land in atomics that the instrumented ranks' hot paths read
// at their next safe point.
type Controller struct {
	backlogHigh int64 // stream byte backlog treated as overload
	tel         *telemetry.ControllerMetrics

	mu      sync.Mutex
	gates   []*Gate
	windows []WindowSetter
	level   int
	calm    int
	seeded  bool
	// Previous snapshot's counter values, for rate-of-change signals, and
	// its NIC backlog high-water mark.
	prevStalls, prevBacklogMax int64

	levelA      atomic.Int32
	decisions   atomic.Int64
	packVersion atomic.Int32
	flushEvery  atomic.Int32
	maxSeen     atomic.Int32
}

// NewController builds a controller that treats a stream byte backlog of
// backlogHighBytes as overload (0 = 256 KiB). tel may be nil.
func NewController(backlogHighBytes int64, tel *telemetry.ControllerMetrics) *Controller {
	if backlogHighBytes <= 0 {
		backlogHighBytes = defaultBacklogHighBytes
	}
	c := &Controller{backlogHigh: backlogHighBytes, tel: tel}
	c.packVersion.Store(int32(trace.PackV1))
	return c
}

// NewGate creates an admission gate governed by this controller,
// pre-programmed with the current level's plan. One gate per recorder
// keeps the shed ledgers per-rank, so audit packs merge without double
// counting.
func (c *Controller) NewGate() *Gate {
	g := NewGate()
	c.mu.Lock()
	c.gates = append(c.gates, g)
	c.program(g, ladder[c.level])
	c.mu.Unlock()
	return g
}

// AddStream registers a stream whose credit window the controller may
// retarget.
func (c *Controller) AddStream(w WindowSetter) {
	if w == nil {
		return
	}
	c.mu.Lock()
	c.windows = append(c.windows, w)
	w.RequestWindow(c.windowFor(c.level))
	c.mu.Unlock()
}

// Observe feeds one observation into the control loop.
func (c *Controller) Observe(sig Signals) {
	if sig.WallNs > 0 {
		c.tel.SnapshotLag(time.Now().UnixNano() - sig.WallNs)
	}
	backlogBytes := sig.BytesWritten - sig.BytesRead
	if backlogBytes > 0 {
		c.tel.Backlog(backlogBytes)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	dStalls := sig.Stalls - c.prevStalls
	c.prevStalls = sig.Stalls
	// The gauge's high-water mark never falls, so it only says something
	// about this period when it rose in it; otherwise the last value is
	// the best reading of the backlog since the previous snapshot.
	backlogNs := sig.BacklogNs
	if sig.BacklogMaxNs > c.prevBacklogMax {
		backlogNs = sig.BacklogMaxNs
		c.prevBacklogMax = sig.BacklogMaxNs
	}
	if !c.seeded {
		// First snapshot only seeds the counter baselines: its "delta" is
		// the absolute count since boot, not a rate.
		c.seeded = true
		c.decide(c.level)
		return
	}
	switch {
	case dStalls >= panicStalls || backlogBytes >= 2*c.backlogHigh:
		// A stall burst, or a queue already twice the overload line:
		// stepping one level at a time would let the backlog compound for
		// several more control periods. Jump to the top of the ladder.
		c.calm = 0
		c.decide(maxLevel)
	case dStalls >= stallDelta ||
		backlogNs >= backlogHighNs ||
		backlogBytes >= c.backlogHigh:
		c.calm = 0
		c.decide(c.level + 1)
	case backlogBytes > c.backlogHigh/4:
		// Hysteresis band: no new pressure, but the queue has not drained
		// deep either. Hold the level rather than relax into a fresh
		// stall — relaxing is only safe once the analyzers have real
		// headroom, not the moment they dip under the overload line.
		c.calm = 0
		c.decide(c.level)
	default:
		c.calm++
		if c.calm >= calmSnapshots && c.level > 0 {
			c.calm = 0
			c.decide(c.level - 1)
		} else {
			c.decide(c.level)
		}
	}
}

// decide moves to the given level (clamped) and applies its plan to every
// actuator. Caller holds c.mu.
func (c *Controller) decide(level int) {
	if level < 0 {
		level = 0
	}
	if level > maxLevel {
		level = maxLevel
	}
	if level > c.level {
		c.tel.OnEscalate()
	} else if level < c.level {
		c.tel.OnRelax()
	}
	c.level = level
	c.levelA.Store(int32(level))
	if int32(level) > c.maxSeen.Load() {
		c.maxSeen.Store(int32(level))
	}
	c.decisions.Add(1)
	c.tel.OnDecision(level)

	plan := ladder[level]
	for _, g := range c.gates {
		c.program(g, plan)
	}
	win := c.windowFor(level)
	for _, w := range c.windows {
		w.RequestWindow(win)
	}
	if level >= 1 {
		// Byte-bound overload: the compact columns buy wire bytes (DESIGN
		// §9's v2-wins regime; the v2-loses cases — tiny packs, high
		// entropy — do not arise here because overload implies full packs
		// of regular traffic). Deeper overload (level >= 2) moves to the
		// v3 per-stream dictionary: a sustained overloaded stream is long
		// by definition, exactly the regime where amortizing the
		// dictionary across packs wins (DESIGN §13); v2 stays the level-1
		// choice so a brief spike never pays v3's short-stream overhead.
		// Coarser flush cadence cuts the partial traffic competing with
		// data for the analyzer.
		if level >= 2 {
			c.packVersion.Store(int32(trace.PackV3))
			c.flushEvery.Store(32)
		} else {
			c.packVersion.Store(int32(trace.PackV2))
			c.flushEvery.Store(16)
		}
	} else {
		c.packVersion.Store(int32(trace.PackV1))
		c.flushEvery.Store(0)
	}
}

func (c *Controller) windowFor(level int) int {
	if level >= 1 {
		return maxWindow
	}
	return baseWindow
}

// program applies a level plan to one gate.
func (c *Controller) program(g *Gate, p classPlan) {
	for _, k := range trace.Kinds() {
		switch {
		case k == trace.KindInit || k == trace.KindFinalize || k.IsCollective():
			g.SetInterval(k, 1)
		case k == trace.KindIsend || k == trace.KindIrecv || k.IsWait() || k == trace.KindProbe:
			g.SetInterval(k, p.async)
		case k.IsPosix():
			g.SetInterval(k, p.posix)
		default:
			g.SetInterval(k, p.p2p)
		}
	}
}

// Level returns the current escalation level.
func (c *Controller) Level() int { return int(c.levelA.Load()) }

// MaxLevelSeen returns the highest level the run reached.
func (c *Controller) MaxLevelSeen() int { return int(c.maxSeen.Load()) }

// Decisions returns how many control decisions have been taken.
func (c *Controller) Decisions() int64 { return c.decisions.Load() }

// PackVersion returns the pack wire format the recorders should build
// next (consulted at flush boundaries, where swapping is safe).
func (c *Controller) PackVersion() int { return int(c.packVersion.Load()) }

// FlushEvery returns the tree partial-flush cadence in packs, or 0 to
// keep the tree's static cadence.
func (c *Controller) FlushEvery() int { return int(c.flushEvery.Load()) }

// TotalShed sums shed events across every gate the controller governs.
func (c *Controller) TotalShed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, g := range c.gates {
		n += g.TotalShed()
	}
	return n
}
