// Fault injection for the MPI runtime model.
//
// The paper's coupling layer uses back-pressure as its adaptation
// mechanism, which turns a crashed analysis partition into a hang of the
// instrumented application. To study (and defend against) that hazard,
// the runtime can crash a rank at a virtual time (FailRank), with
// fail-stop semantics: the rank's process stops computing and
// communicating, messages in flight to it are dropped, its mailbox is
// discarded, and every other rank's arrival generation is bumped so
// blocked fault-aware waits (WaitArrivalDeadline, the vmpi streams)
// re-check peer health through RankFailed. A slow analyzer, the other
// hazard the experiments study, is modeled by its byte rate, not by a
// fault.
//
// Crashes surface to communication partners as *RankFailedError:
// SendChecked returns it, and the legacy blocking Recv panics with it
// (loud, never a silent hang). Collectives are not fault-aware: a rank
// crashing mid-collective strands the other participants until Run's
// deadlock detector reports them — acceptable for this reproduction,
// where faults are injected into the analysis partition, which performs
// no collectives.
package mpi

import (
	"fmt"

	"repro/internal/des"
)

// RankFailedError reports a point-to-point operation against a crashed
// peer.
type RankFailedError struct {
	// Rank is the failed peer's global (universe) rank.
	Rank int
	// Op names the operation that observed the failure.
	Op string
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: %s peer rank %d has failed", e.Op, e.Rank)
}

// FailRank schedules a fail-stop crash of the given global rank at virtual
// time at. Call it after NewWorld and before Run. At the fault time the
// rank's process is killed, its mailbox is discarded, messages still in
// flight to it are dropped on delivery, and every surviving rank's arrival
// generation is bumped so blocked multiplexed waits re-evaluate peer
// health.
func (w *World) FailRank(at des.Time, global int) {
	if global < 0 || global >= len(w.ranks) {
		panic(fmt.Sprintf("mpi: FailRank of invalid rank %d", global))
	}
	w.sim.At(at, func() { w.failRankNow(global) })
}

func (w *World) failRankNow(global int) {
	if w.failed[global] {
		return
	}
	w.failed[global] = true
	r := w.ranks[global]
	r.mailbox = nil
	if r.proc != nil {
		r.proc.Kill()
	}
	// Wake every blocked receiver in the job: a fault is an "arrival" in
	// the sense that waiting code must re-check its predicates (is my peer
	// still alive?).
	for _, other := range w.ranks {
		if other == r || other.proc == nil || other.proc.Dead() {
			continue
		}
		other.arrivalSeq++
		other.arrival.Broadcast()
	}
}

// RankFailed reports whether the given global rank has crashed.
func (w *World) RankFailed(global int) bool {
	return global >= 0 && global < len(w.failed) && w.failed[global]
}

// SendChecked is Send returning a *RankFailedError instead of silently
// dropping the payload when the destination has crashed. Argument
// validation failures still panic (caller bugs, not faults).
func (r *Rank) SendChecked(c *Comm, dst, tag int, size int64, payload []byte) error {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: SendChecked to invalid rank %d of comm size %d", dst, c.Size()))
	}
	if g := c.Global(dst); r.world.failed[g] {
		r.overhead() // the call itself still costs software time
		return &RankFailedError{Rank: g, Op: "SendChecked"}
	}
	r.Send(c, dst, tag, size, payload)
	return nil
}

// WaitArrivalDeadline is WaitArrival bounded by an absolute virtual-time
// deadline (0 means no deadline — identical to WaitArrival). It returns
// true when the arrival generation advanced past seq (a message was
// delivered, or a fault event bumped the generation) and false when the
// deadline expired first. Spurious wakeups of other waiters on the rank's
// arrival condition are harmless: every waiter re-checks its predicate.
func (r *Rank) WaitArrivalDeadline(seq uint64, deadline des.Time, why string) bool {
	if deadline <= 0 {
		r.WaitArrival(seq, why)
		return true
	}
	if r.arrivalSeq > seq {
		return true
	}
	if r.Now() >= deadline {
		return false
	}
	// One-shot timer waking this rank's arrival waiters at the deadline.
	r.world.sim.At(deadline, func() { r.arrival.Broadcast() })
	for r.arrivalSeq <= seq {
		if r.Now() >= deadline {
			return false
		}
		r.arrival.Wait(r.proc, why)
	}
	return true
}
