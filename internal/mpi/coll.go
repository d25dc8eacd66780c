package mpi

import (
	"fmt"
	"math"
	"time"

	"repro/internal/des"
)

// CollKind identifies a collective operation for cost modeling and event
// recording.
type CollKind int

// Collective kinds.
const (
	CollBarrier CollKind = iota
	CollBcast
	CollReduce
	CollAllreduce
	CollGather
	CollAllgather
	CollAlltoall
	CollReduceScatter
	CollScan
)

var collNames = [...]string{
	CollBarrier:       "MPI_Barrier",
	CollBcast:         "MPI_Bcast",
	CollReduce:        "MPI_Reduce",
	CollAllreduce:     "MPI_Allreduce",
	CollGather:        "MPI_Gather",
	CollAllgather:     "MPI_Allgather",
	CollAlltoall:      "MPI_Alltoall",
	CollReduceScatter: "MPI_Reduce_scatter",
	CollScan:          "MPI_Scan",
}

// String returns the MPI name of the collective.
func (k CollKind) String() string {
	if int(k) < len(collNames) {
		return collNames[k]
	}
	return fmt.Sprintf("CollKind(%d)", int(k))
}

type collKey struct {
	comm uint32
	seq  uint64
}

type collState struct {
	arrived int
	latest  des.Time
	bytes   int64
	waiters []*des.Proc
}

// collCost returns the modeled duration of a collective among p ranks
// moving the given per-rank byte count, using Hockney-style (alpha-beta)
// formulas for the usual tree / ring algorithms.
func collCost(kind CollKind, p int, bytes int64, cfg Config) time.Duration {
	if p <= 1 {
		return cfg.CallOverhead
	}
	alpha := cfg.Net.Latency.Seconds()
	beta := 0.0
	if cfg.Net.EndpointBandwidth > 0 {
		beta = 1 / cfg.Net.EndpointBandwidth
	}
	m := float64(bytes)
	logp := math.Ceil(math.Log2(float64(p)))
	var sec float64
	switch kind {
	case CollBarrier:
		sec = 2 * logp * alpha
	case CollBcast:
		sec = logp * (alpha + m*beta)
	case CollReduce:
		sec = logp * (alpha + m*beta)
	case CollAllreduce:
		// reduce-scatter + allgather (Rabenseifner) costs ~2(p-1)/p * m
		// bandwidth terms plus 2 log p latency terms.
		sec = 2*logp*alpha + 2*(float64(p-1)/float64(p))*m*beta
	case CollGather, CollAllgather:
		sec = logp*alpha + float64(p-1)*m*beta
	case CollAlltoall:
		// m is the per-pair message size; every rank sends (p-1)m.
		sec = float64(p-1) * (alpha + m*beta)
	case CollReduceScatter:
		// Ring reduce-scatter: (p-1)/p of the buffer moved once.
		sec = logp*alpha + (float64(p-1)/float64(p))*m*beta
	case CollScan:
		sec = logp * (alpha + m*beta)
	default:
		panic("mpi: unknown collective kind")
	}
	return des.SecondsToDuration(sec)
}

// CollectiveCost exposes the collective cost model (used by instrumentation
// sinks that need to pre-compute expected durations in tests).
func CollectiveCost(kind CollKind, p int, bytes int64, cfg Config) time.Duration {
	return collCost(kind, p, bytes, cfg)
}

// collective is the generic rendezvous: the n-th call to a collective on a
// communicator matches the n-th call on every other member. Completion time
// is latest-arrival + modeled cost; every participant resumes then, so
// early arrivals observe wait time (this is what makes the paper's
// Figure 18 wait-state maps meaningful).
func (r *Rank) collective(c *Comm, kind CollKind, bytes int64) {
	r.overhead()
	me := c.LocalOf(r.global)
	if me < 0 {
		panic("mpi: collective on a communicator the caller is not a member of")
	}
	if c.Size() == 1 {
		return
	}
	w := r.world
	seq := c.collSeq[me]
	c.collSeq[me]++
	key := collKey{comm: c.id, seq: seq}
	st := w.colls[key]
	if st == nil {
		st = &collState{waiters: make([]*des.Proc, 0, c.Size()-1)}
		w.colls[key] = st
	}
	st.arrived++
	if now := r.Now(); now > st.latest {
		st.latest = now
	}
	if bytes > st.bytes {
		st.bytes = bytes
	}
	if st.arrived < c.Size() {
		st.waiters = append(st.waiters, r.proc)
		r.proc.ParkFor(r.blockedOnColl(kind.String(), c, seq))
		return
	}
	// Last arrival: release everyone at completion time.
	done := st.latest + des.DurationToTime(collCost(kind, c.Size(), st.bytes, w.cfg))
	delete(w.colls, key)
	for _, p := range st.waiters {
		w.sim.AtCall(done, unparkProc, p)
	}
	r.proc.SleepUntil(done)
}

// unparkProc is the shared release callback of collective and Split: one
// AtCall per waiter, no closure each.
func unparkProc(a any) { a.(*des.Proc).Unpark() }

// Barrier blocks until every member of c has entered it.
func (r *Rank) Barrier(c *Comm) { r.collective(c, CollBarrier, 0) }

// Bcast models a broadcast of size bytes from root (root identity affects
// only event recording; the cost model is symmetric).
func (r *Rank) Bcast(c *Comm, root int, size int64) { r.collective(c, CollBcast, size) }

// Reduce models a reduction of size bytes to root.
func (r *Rank) Reduce(c *Comm, root int, size int64) { r.collective(c, CollReduce, size) }

// Allreduce models an allreduce of size bytes.
func (r *Rank) Allreduce(c *Comm, size int64) { r.collective(c, CollAllreduce, size) }

// Gather models a gather of size bytes per rank to root.
func (r *Rank) Gather(c *Comm, root int, size int64) { r.collective(c, CollGather, size) }

// Allgather models an allgather of size bytes per rank.
func (r *Rank) Allgather(c *Comm, size int64) { r.collective(c, CollAllgather, size) }

// Alltoall models an all-to-all personalized exchange of perPair bytes
// between every rank pair.
func (r *Rank) Alltoall(c *Comm, perPair int64) { r.collective(c, CollAlltoall, perPair) }
