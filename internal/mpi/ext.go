package mpi

import (
	"sort"

	"repro/internal/des"
)

// Ssend performs a synchronous-mode send: it returns only once the
// receiver has matched the message (posted a matching receive). Unlike the
// eager standard-mode Send, Ssend exposes late receivers to the sender —
// useful for workloads (and wait-state analyses) where send-side blocking
// matters.
func (r *Rank) Ssend(c *Comm, dst, tag int, size int64, payload []byte) {
	r.overhead()
	r.inject("Ssend", c, dst, tag, size, payload, r.proc)
	// Park until the receiver matches the message.
	r.proc.ParkFor(r.blockedOnP2P("ssend", "dst", dst, tag, c))
}

// Probe blocks until a message matching (src, tag) is available on c and
// returns its status without receiving it.
func (r *Rank) Probe(c *Comm, src, tag int) Status {
	r.overhead()
	for {
		seq := r.ArrivalSeq()
		if ok, st := r.Iprobe(c, src, tag); ok {
			return st
		}
		for r.arrivalSeq <= seq {
			r.arrival.WaitFor(r.proc, r.blockedOnP2P("probe", "src", src, tag, c))
		}
	}
}

// splitState coordinates one Comm.Split instance.
type splitState struct {
	arrived int
	entries []splitEntry
	waiters []*Rank
	comms   map[int]*Comm
}

type splitEntry struct {
	color, key, global int
}

// Split partitions the communicator by color, ordering each new
// communicator by (key, old rank) — the semantics of MPI_Comm_split. Every
// member of c must call it; a negative color (MPI_UNDEFINED) yields nil.
func (r *Rank) Split(c *Comm, color, key int) *Comm {
	r.overhead()
	me := c.LocalOf(r.global)
	if me < 0 {
		panic("mpi: Split on a communicator the caller is not a member of")
	}
	w := r.world
	seq := c.collSeq[me]
	c.collSeq[me]++
	skey := collKey{comm: c.id, seq: seq}
	st := w.splits[skey]
	if st == nil {
		st = &splitState{}
		w.splits[skey] = st
	}
	st.arrived++
	st.entries = append(st.entries, splitEntry{color: color, key: key, global: r.global})
	if st.arrived < c.Size() {
		st.waiters = append(st.waiters, r)
		r.proc.ParkFor(r.blockedOnColl("MPI_Comm_split", c, seq))
	} else {
		// Last arrival builds the communicators for everyone.
		st.comms = make(map[int]*Comm)
		byColor := map[int][]splitEntry{}
		for _, e := range st.entries {
			if e.color >= 0 {
				byColor[e.color] = append(byColor[e.color], e)
			}
		}
		colors := make([]int, 0, len(byColor))
		for col := range byColor {
			colors = append(colors, col)
		}
		sort.Ints(colors)
		for _, col := range colors {
			entries := byColor[col]
			sort.Slice(entries, func(i, j int) bool {
				if entries[i].key != entries[j].key {
					return entries[i].key < entries[j].key
				}
				return entries[i].global < entries[j].global
			})
			globals := make([]int, len(entries))
			for i, e := range entries {
				globals[i] = e.global
			}
			st.comms[col] = w.NewComm(globals)
		}
		// The split costs one barrier-like synchronization.
		done := r.Now() + des.DurationToTime(collCost(CollBarrier, c.Size(), 0, w.cfg))
		for _, waiter := range st.waiters {
			w.sim.AtCall(done, unparkProc, waiter.proc)
		}
		delete(w.splits, skey)
		r.proc.SleepUntil(done)
	}
	// Every caller holds st (closure), including the waiters woken above.
	return st.commFor(r.global)
}

// commFor returns the communicator containing the given global rank, or
// nil (undefined color).
func (st *splitState) commFor(global int) *Comm {
	for _, c := range st.comms {
		if c.LocalOf(global) >= 0 {
			return c
		}
	}
	return nil
}

// ReduceScatter models a reduce-scatter of size bytes per rank.
func (r *Rank) ReduceScatter(c *Comm, size int64) { r.collective(c, CollReduceScatter, size) }
