// Package instrument implements the PMPI-style interposition layer and the
// measurement sinks it feeds.
//
// The paper preloads a generated wrapper library that intercepts every MPI
// call, records an event (call kind, peer, sizes, timestamps, context) and
// hands it to the coupling layer. Here the interposition point is the MPI
// type: workloads are written against it, and attaching a Recorder turns
// every call into an event without touching workload code — the moral
// equivalent of LD_PRELOAD. With no recorder attached the wrapper is a thin
// pass-through, which is the "Reference" configuration of the paper's
// Figure 16.
//
// Recorders decide what an event costs and where its bytes go:
//
//   - OnlineRecorder — packs events and streams them to the analyzer over
//     VMPI streams (the paper's contribution).
//   - TraceRecorder — buffers events and writes them to the shared
//     filesystem through SIONlib-style aggregated files (the Score-P trace
//     baseline).
//   - ProfileRecorder — reduces events to a local per-call profile with no
//     data movement until a tiny final dump (the Score-P profile / mpiP
//     baseline).
//   - ScalascaRecorder — runtime call-path summarization: higher per-event
//     cost, moderate final report (the Scalasca baseline).
package instrument

import (
	"time"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// Recorder receives one event per intercepted call, in the calling rank's
// simulation context: implementations may advance virtual time (that time
// is exactly the instrumentation overhead the experiments measure).
type Recorder interface {
	// Record consumes one event. Record must not retain ev: the wrapper
	// reuses one scratch event per handle, so the pointee is overwritten by
	// the next intercepted call (copy what must outlive the call).
	Record(ev *trace.Event)
	// Finalize flushes pending state (called from the wrapped
	// MPI_Finalize, so flush time lands inside the measured window, as it
	// does for the real tools).
	Finalize()
	// BytesProduced reports the cumulative measurement data generated.
	BytesProduced() int64
}

// MPI is the interposed MPI interface handed to workloads. All methods are
// relative to the wrapped communicator (a virtualized MPI_COMM_WORLD when
// the workload runs under vmpi).
type MPI struct {
	rank *mpi.Rank
	comm *mpi.Comm
	rec  Recorder
	me   int32
	// app is the caller's rank in the communicator the first handle wraps.
	// Events carry it as Rank whatever communicator a call uses, so a
	// sub-communicator's collectives land on the caller's application rank.
	app int32
	ctx uint32
	// ev is emit's scratch event: recorders do not retain it, so one per
	// handle serves every intercepted call without a heap allocation.
	ev trace.Event
	// reqs is exchange's request storage: pointers into one slab, as long
	// as the largest group the handle has exchanged with.
	reqs []*mpi.Request
}

// New wraps a rank and communicator with no recorder attached (reference
// behaviour).
func New(r *mpi.Rank, c *mpi.Comm) *MPI {
	me := int32(c.LocalOf(r.Global()))
	return &MPI{rank: r, comm: c, me: me, app: me}
}

// SetRecorder attaches (or clears, with nil) the measurement recorder.
func (m *MPI) SetRecorder(rec Recorder) { m.rec = rec }

// SetContext sets the call-site context id stamped on subsequent events.
func (m *MPI) SetContext(ctx uint32) { m.ctx = ctx }

// Rank returns the caller's rank in the wrapped communicator.
func (m *MPI) Rank() int { return int(m.me) }

// Size returns the wrapped communicator's size.
func (m *MPI) Size() int { return m.comm.Size() }

// MPIRank exposes the underlying runtime rank.
func (m *MPI) MPIRank() *mpi.Rank { return m.rank }

// Compute advances virtual time (application computation; never
// instrumented).
func (m *MPI) Compute(d time.Duration) { m.rank.Compute(d) }

// emit records an event if a recorder is attached.
func (m *MPI) emit(kind trace.Kind, peer, tag int32, size, t0, t1 int64) {
	if m.rec == nil {
		return
	}
	m.ev = trace.Event{
		Kind: kind, Rank: m.app, Peer: peer, Tag: tag,
		Comm: m.comm.ID(), Ctx: m.ctx, Size: size, TStart: t0, TEnd: t1,
	}
	m.rec.Record(&m.ev)
}

func (m *MPI) now() int64 { return int64(m.rank.Now()) }

// Init records the MPI_Init event; call it at workload start when
// instrumented runs should account the full Init..Finalize window.
func (m *MPI) Init() {
	t0 := m.now()
	m.emit(trace.KindInit, -1, -1, 0, t0, m.now())
}

// Finalize records the MPI_Finalize event and flushes the recorder. The
// flush cost lands before the workload's finish time, exactly like a
// tool's buffer flush inside MPI_Finalize. The event is recorded first so
// it travels with the final flush.
func (m *MPI) Finalize() {
	t0 := m.now()
	m.emit(trace.KindFinalize, -1, -1, 0, t0, t0)
	if m.rec != nil {
		m.rec.Finalize()
	}
}

// Send is a blocking standard-mode send of size bytes to dst.
func (m *MPI) Send(dst, tag int, size int64) {
	t0 := m.now()
	m.rank.Send(m.comm, dst, tag, size, nil)
	m.emit(trace.KindSend, int32(dst), int32(tag), size, t0, m.now())
}

// Recv is a blocking receive; it returns the matched source and size.
func (m *MPI) Recv(src, tag int) (int, int64) {
	t0 := m.now()
	st, _ := m.rank.Recv(m.comm, src, tag)
	m.emit(trace.KindRecv, int32(st.Source), int32(st.Tag), st.Size, t0, m.now())
	return st.Source, st.Size
}

// Exchange performs a symmetric neighbour exchange with peer: count
// messages of size bytes in each direction. Transport is sampled — the
// bytes move as one aggregated message pair — while the event stream
// carries the full per-message record sequence (count Isend + count Irecv
// + one Waitall), so instrumentation data volume and event rates stay
// faithful to the unsampled benchmark. See DESIGN.md ("event fidelity is
// preserved; transport fidelity is sampled").
func (m *MPI) Exchange(peer, tag int, size int64, count int) {
	m.exchange([]int{peer}, tag, []int64{size}, count, int32(peer))
}

// ExchangeGroup performs a symmetric neighbour exchange with several peers
// at once: all sends and receives are posted before any wait, which is the
// deadlock-free pattern stencil codes use on periodic meshes (a chain of
// pairwise Exchange calls would circular-wait around a torus). Event
// semantics per peer match Exchange: count Isend + count Irecv records,
// then one Waitall covering the group. sizes[i] is the per-message size
// toward peers[i].
func (m *MPI) ExchangeGroup(peers []int, tag int, sizes []int64, count int) {
	m.exchange(peers, tag, sizes, count, -1)
}

// exchange is Exchange and ExchangeGroup, the requests in the handle's slab
// (a warm one allocates nothing); waitPeer is whom the Waitall record names.
func (m *MPI) exchange(peers []int, tag int, sizes []int64, count int, waitPeer int32) {
	if count <= 0 || len(peers) == 0 {
		return
	}
	if len(sizes) != len(peers) {
		panic("instrument: ExchangeGroup sizes/peers length mismatch")
	}
	t0 := m.now()
	n := 2 * len(peers)
	if len(m.reqs) < n {
		slab := make([]mpi.Request, n)
		m.reqs = make([]*mpi.Request, n)
		for i := range slab {
			m.reqs[i] = &slab[i]
		}
	}
	var total int64
	for pi, peer := range peers {
		for i := 0; i < count; i++ {
			m.emit(trace.KindIsend, int32(peer), int32(tag), sizes[pi], t0, t0)
			m.emit(trace.KindIrecv, int32(peer), int32(tag), 0, t0, t0)
		}
		m.rank.IrecvInto(m.reqs[2*pi], m.comm, peer, tag)
		m.rank.IsendInto(m.reqs[2*pi+1], m.comm, peer, tag, sizes[pi]*int64(count), nil)
		total += 2 * sizes[pi] * int64(count)
	}
	m.rank.Waitall(m.reqs[:n])
	m.emit(trace.KindWaitall, waitPeer, int32(tag), total, t0, m.now())
}

// Allreduce reduces size bytes to every rank.
func (m *MPI) Allreduce(size int64) {
	t0 := m.now()
	m.rank.Allreduce(m.comm, size)
	m.emit(trace.KindAllreduce, -1, -1, size, t0, m.now())
}

// Alltoall exchanges perPair bytes between every rank pair.
func (m *MPI) Alltoall(perPair int64) {
	t0 := m.now()
	m.rank.Alltoall(m.comm, perPair)
	m.emit(trace.KindAlltoall, -1, -1, perPair*int64(m.comm.Size()-1), t0, m.now())
}

// Split partitions the wrapped communicator like MPI_Comm_split and
// returns an interposed handle over the new communicator, sharing this
// handle's recorder (communicators created after MPI_Init remain under
// the same PMPI interposition). A negative color yields nil.
func (m *MPI) Split(color, key int) *MPI {
	sub := m.rank.Split(m.comm, color, key)
	if sub == nil {
		return nil
	}
	return m.Sub(sub)
}

// Sub returns an interposed handle over an existing communicator the rank
// belongs to, sharing this handle's recorder and context.
func (m *MPI) Sub(c *mpi.Comm) *MPI {
	return &MPI{
		rank: m.rank, comm: c, rec: m.rec, ctx: m.ctx,
		me: int32(c.LocalOf(m.rank.Global())), app: m.app,
	}
}

// PosixWrite records a POSIX write of size bytes (event only; density-map
// coverage of POSIX calls, paper §IV-D).
func (m *MPI) PosixWrite(size int64, d time.Duration) {
	t0 := m.now()
	m.rank.Compute(d)
	m.emit(trace.KindPosixWrite, -1, -1, size, t0, m.now())
}
