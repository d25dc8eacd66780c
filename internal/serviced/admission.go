package serviced

import "repro/internal/adapt"

// governor is one session's admission controller: the PR6 closed-loop
// overload law re-used on the serving side. It builds the controller's
// signals from the session's ingest counters and feeds them to an
// adapt.Controller; the controller's escalation level then
// actuates the session's credit window and its per-application admission
// gates, exactly the ladder the in-process adaptive engine climbs.
//
// The overload sensor is quota overage: a session's ingest volume past
// its byte budget plays the role of un-drained stream backlog
// (bytes_written − bytes_read) in the controller's law. One hot tenant
// therefore escalates — shrinking window, then shedding via its own
// gates with the audited completeness bound — while every other session's
// governor, fed only its own counters, stays at level 0. Observation
// happens at fixed pack counts, so a session's admission trajectory is a
// pure function of its own frame sequence: deterministic, testable,
// isolated.
//
// One deliberate inversion against the in-process controller: vmpi
// widens a writer's credit window under overload (riding out stalls),
// but a multi-tenant server narrows the hot tenant's window instead —
// the same level signal, opposite sign, because here the scarce resource
// is the shared engine, not the stalled stream.
type governor struct {
	ctl *adapt.Controller
	// base is the level-0 credit window; every escalation level halves it
	// (floor 1).
	base int
	// budget is the session's ingest quota in bytes (0 = unlimited: the
	// governor never escalates and the gates never shed).
	budget int64

	packs   int64
	bytesIn int64
}

// Default admission parameters.
const (
	// DefaultWindow is the level-0 per-session credit window in pack
	// frames.
	DefaultWindow = 8
	// DefaultGovernEvery is the admission governor's observation cadence
	// in packs.
	DefaultGovernEvery = 4
)

func newGovernor(backlogHighBytes int64, base int, budget int64) *governor {
	if base <= 0 {
		base = DefaultWindow
	}
	g := &governor{ctl: adapt.NewController(backlogHighBytes, nil), base: base, budget: budget}
	// The controller's first observation only seeds its counter baselines;
	// deliver it now so the first in-band observation acts on real deltas.
	g.observe()
	return g
}

// newGate mints an admission gate governed by this session's controller
// (one per application, so shed ledgers stay per-app like the in-process
// engine keeps them per-rank).
func (g *governor) newGate() *adapt.Gate { return g.ctl.NewGate() }

// onPack accounts one ingested pack frame and, at the observation
// cadence, runs a control decision.
func (g *governor) onPack(bytes int) {
	g.packs++
	g.bytesIn += int64(bytes)
	if g.packs%DefaultGovernEvery == 0 {
		g.observe()
	}
}

// observe feeds the control law the session counters. Quota overage is
// presented as byte backlog — written bytes the (budgeted) engine has not
// "read".
func (g *governor) observe() {
	var over int64
	if g.budget > 0 && g.bytesIn > g.budget {
		over = g.bytesIn - g.budget
	}
	g.ctl.Observe(adapt.Signals{BytesWritten: g.bytesIn, BytesRead: g.bytesIn - over})
}

// window returns the current credit window: the base halved per
// escalation level, floor 1.
func (g *governor) window() int {
	w := g.base >> g.ctl.Level()
	if w < 1 {
		w = 1
	}
	return w
}

// maxLevel returns the highest level the session reached.
func (g *governor) maxLevel() int { return g.ctl.MaxLevelSeen() }
