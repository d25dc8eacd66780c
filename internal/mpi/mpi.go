// Package mpi implements a deterministic, virtual-time model of an MPI
// runtime in MPMD mode, sufficient to host the paper's VMPI coupling layer
// and the NAS benchmark communication skeletons.
//
// The runtime is a substitution for a real MPI library (Go has no mature
// bindings; see DESIGN.md §2): ranks are des processes, messages travel over
// a simnet interconnect model, and collectives combine a real rendezvous
// (every participant must arrive) with a Hockney-style cost formula so that
// thousand-rank collectives cost O(p) simulation events instead of O(p²)
// messages.
//
// Semantics implemented:
//
//   - MPMD launch: a World is a list of Programs, each with its own process
//     count and entry point; global ranks are assigned in program order,
//     mirroring mpirun's MPMD syntax the paper relies on.
//   - Point-to-point: Send/Recv/Isend/Irecv/Wait/Waitall with tags,
//     AnySource/AnyTag wildcards, and non-overtaking delivery per
//     (sender, receiver) pair. Sends are eager (buffered): they complete at
//     injection; flow control is left to higher layers (VMPI streams add
//     credit-based back-pressure on top, which is where the paper's
//     adaptation window lives).
//   - Collectives: Barrier, Bcast, Reduce, Allreduce, Gather, Allgather,
//     Alltoall. Each is a true synchronization (completion depends on the
//     latest arrival, so wait-time imbalance is observable) plus a modeled
//     duration.
package mpi

import (
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/simfs"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// Wildcards for Recv/Irecv source and tag matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Program describes one executable of an MPMD launch.
type Program struct {
	// Name identifies the program; the VMPI layer groups processes into
	// partitions by this name.
	Name string
	// Procs is the number of processes to launch.
	Procs int
	// Main is the entry point, executed once per rank.
	Main func(r *Rank)
}

// Config parameterizes the runtime.
type Config struct {
	// Net is the interconnect model configuration.
	Net simnet.Config
	// FS, when non-nil, attaches a shared filesystem model reachable via
	// World.FS (used by trace-based instrumentation sinks).
	FS *simfs.Config
	// Seed seeds the deterministic random source.
	Seed int64
}

const (
	// callOverhead is the fixed software cost of every MPI call.
	callOverhead = 100 * time.Nanosecond
	// envelope is the per-message protocol overhead in bytes, added to the
	// payload size for transfer-time purposes.
	envelope = 64
)

// DefaultConfig returns a runtime configuration with the default
// interconnect model.
func DefaultConfig() Config {
	return Config{
		Net:  simnet.DefaultConfig(),
		Seed: 1,
	}
}

// World is one MPMD job: the simulator, the network, the ranks of every
// program, and the universe communicator spanning all of them.
type World struct {
	sim      *des.Simulator
	net      *simnet.Net
	fs       *simfs.FS
	cfg      Config
	programs []Program
	ranks    []Rank // indexed by global rank
	universe *Comm
	nextComm uint32
	colls    map[collKey]*collState
	splits   map[collKey]*splitState
	msgFree  *message

	finishTime []des.Time

	// Fault-injection state (see fault.go).
	failed []bool
}

// NewWorld builds a world from the given programs. Run must be called to
// execute it.
func NewWorld(cfg Config, programs ...Program) *World {
	total := 0
	for i, p := range programs {
		if p.Procs <= 0 {
			panic(fmt.Sprintf("mpi: program %d (%s) has %d procs", i, p.Name, p.Procs))
		}
		total += p.Procs
	}
	if total == 0 {
		panic("mpi: empty world")
	}
	w := &World{
		sim:        des.New(cfg.Seed),
		net:        simnet.New(total, cfg.Net),
		cfg:        cfg,
		programs:   programs,
		colls:      make(map[collKey]*collState),
		splits:     make(map[collKey]*splitState),
		ranks:      make([]Rank, total),
		finishTime: make([]des.Time, total),
		failed:     make([]bool, total),
	}
	if cfg.FS != nil {
		w.fs = simfs.New(*cfg.FS)
	}
	global := 0
	for pi, p := range programs {
		for lr := 0; lr < p.Procs; lr++ {
			w.ranks[global] = Rank{world: w, global: global, prog: pi, local: lr}
			global++
		}
	}
	members := make([]int, total)
	for i := range members {
		members[i] = i
	}
	w.universe = w.NewComm(members)
	// The bisection cap applies to bulk traffic between programs
	// (coupling streams); intra-program neighbour traffic is NIC-bound on
	// a fat tree (see simnet.SetSpineFilter).
	w.net.SetSpineFilter(func(from, to int) bool {
		return w.ranks[from].prog != w.ranks[to].prog
	})
	return w
}

// Sim exposes the simulator (for spawning auxiliary processes or reading
// the clock from outside rank context).
func (w *World) Sim() *des.Simulator { return w.sim }

// Seed returns the world's configured random seed (workload models use it
// to derive deterministic per-rank noise).
func (w *World) Seed() int64 { return w.cfg.Seed }

// AttachTelemetry wires the world's interconnect model into a telemetry
// registry: message/byte rates and NIC queue depth flow into the registry's
// net.* instruments. A nil registry detaches (and is free).
func (w *World) AttachTelemetry(reg *telemetry.Registry) {
	w.net.SetTelemetry(telemetry.NewNetMetrics(reg))
}

// FS returns the attached filesystem model, or nil.
func (w *World) FS() *simfs.FS { return w.fs }

// Universe returns the communicator spanning every rank of every program
// (the paper's MPI_COMM_UNIVERSE once virtualization is active).
func (w *World) Universe() *Comm { return w.universe }

// Programs returns the program table.
func (w *World) Programs() []Program { return w.programs }

// ProgramRanks returns the global ranks belonging to program pi, in local
// rank order.
func (w *World) ProgramRanks(pi int) []int {
	var out []int
	for i := range w.ranks {
		if w.ranks[i].prog == pi {
			out = append(out, i)
		}
	}
	return out
}

// NewComm creates a communicator over the given global ranks. The slice is
// retained; it must not be mutated afterwards.
func (w *World) NewComm(globals []int) *Comm {
	c := &Comm{
		id:      w.nextComm,
		members: globals,
		index:   make(map[int]int, len(globals)),
		collSeq: make([]uint64, len(globals)),
	}
	w.nextComm++
	for i, g := range globals {
		c.index[g] = i
	}
	return c
}

// Run launches every rank and executes the simulation to completion. It
// returns an error if the simulation deadlocks.
func (w *World) Run() error {
	for i := range w.ranks {
		r := &w.ranks[i]
		// The proc handle is taken from SpawnFor so fault injection
		// scheduled at t=0 (before the rank's first transfer) can still
		// target it. The rank names its process (String).
		r.proc = w.sim.SpawnFor(r, func(p *des.Proc) {
			w.programs[r.prog].Main(r)
			w.finishTime[r.global] = p.Now()
		})
	}
	return w.sim.Run()
}

// ProgramFinish returns the latest finish time across a program's ranks —
// the program's virtual wall-time when it started at t=0.
func (w *World) ProgramFinish(pi int) des.Time {
	var max des.Time
	for i := range w.ranks {
		if w.ranks[i].prog == pi && w.finishTime[i] > max {
			max = w.finishTime[i]
		}
	}
	return max
}

// Comm is a communicator: an ordered group of global ranks.
type Comm struct {
	id      uint32
	members []int
	index   map[int]int
	collSeq []uint64
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// ID returns the communicator's unique id within its world.
func (c *Comm) ID() uint32 { return c.id }

// Global translates a communicator-local rank to a global rank.
func (c *Comm) Global(local int) int { return c.members[local] }

// LocalOf translates a global rank to its rank within the communicator,
// returning -1 if it is not a member.
func (c *Comm) LocalOf(global int) int {
	if l, ok := c.index[global]; ok {
		return l
	}
	return -1
}

// message is an in-flight or queued point-to-point message. Messages are
// pooled per world (newMessage/recycleMessage): a simulation moving
// millions of blocks reuses a handful of structs instead of leaving every
// envelope to the garbage collector.
type message struct {
	srcLocal int // sender's rank in the message's communicator
	tag      int
	comm     uint32
	size     int64
	payload  []byte
	// dst is the receiving rank, carried so the shared delivery callback
	// (deliverMessage) needs no per-message closure.
	dst *Rank
	// next links the world's message free list while recycled.
	next *message
}

// newMessage takes a message from the world's free list (or allocates one).
func (w *World) newMessage() *message {
	m := w.msgFree
	if m != nil {
		w.msgFree = m.next
		m.next = nil
	} else {
		m = &message{}
	}
	return m
}

// recycleMessage clears a consumed message and returns it to the free
// list. Callers must have copied out every field they need first.
func (w *World) recycleMessage(m *message) {
	*m = message{next: w.msgFree}
	w.msgFree = m
}

// deliverMessage runs in scheduler context at a message's delivery time
// (scheduled via des.Simulator.AtCall, so delivery costs no closure).
func deliverMessage(a any) {
	msg := a.(*message)
	t := msg.dst
	if t.world.failed[t.global] {
		// Delivered into the void: the peer crashed in flight.
		t.world.recycleMessage(msg)
		return
	}
	t.mailbox = append(t.mailbox, msg)
	t.arrivalSeq++
	t.arrival.Broadcast()
}

// Status describes a completed receive.
type Status struct {
	// Source is the sender's rank in the receive's communicator.
	Source int
	// Tag is the matched message tag.
	Tag int
	// Size is the payload size in bytes.
	Size int64
}

// Request is a non-blocking operation handle.
type Request struct {
	rank *Rank
	// send-side
	isSend bool
	doneAt des.Time
	// recv-side
	comm    *Comm
	wantSrc int
	wantTag int
	matched *message
	// results
	Status  Status
	Payload []byte
	waited  bool
}

// Rank is one simulated MPI process. All methods must be called from the
// rank's own Main function (they execute in its des process context).
type Rank struct {
	world  *World
	proc   *des.Proc
	global int
	prog   int
	local  int

	mailbox    []*message
	arrival    des.Cond
	arrivalSeq uint64

	// why is the scratch park reason of the rank's current blocking call
	// (a rank blocks on one thing at a time).
	why parkReason
}

// parkReason says what a rank is blocked on. Blocking waits are hot and
// the text is read only by the deadlock report, so the operands are kept
// as fields and rendered on demand (des.Proc.ParkFor).
type parkReason struct {
	op        string // "recv", "MPI_Allreduce", ...
	peerLabel string // "src" or "dst" for point-to-point waits, "" for collectives
	peer, tag int    // point-to-point only
	comm      uint32
	seq       uint64 // collectives only
}

func (p *parkReason) String() string {
	if p.peerLabel == "" {
		return fmt.Sprintf("%s(comm=%d seq=%d)", p.op, p.comm, p.seq)
	}
	return fmt.Sprintf("%s(%s=%d tag=%d comm=%d)", p.op, p.peerLabel, p.peer, p.tag, p.comm)
}

// blockedOnP2P fills and returns the rank's park reason for a
// point-to-point wait.
func (r *Rank) blockedOnP2P(op, peerLabel string, peer, tag int, c *Comm) *parkReason {
	r.why = parkReason{op: op, peerLabel: peerLabel, peer: peer, tag: tag, comm: c.id}
	return &r.why
}

// blockedOnColl fills and returns the rank's park reason for a collective.
func (r *Rank) blockedOnColl(op string, c *Comm, seq uint64) *parkReason {
	r.why = parkReason{op: op, comm: c.id, seq: seq}
	return &r.why
}

// String names the rank as panics and deadlock reports give its process:
// program name and rank within the program, "CG.A[3]".
func (r *Rank) String() string {
	return fmt.Sprintf("%s[%d]", r.world.programs[r.prog].Name, r.local)
}

// Global returns the rank's id in the universe.
func (r *Rank) Global() int { return r.global }

// ProgramRank returns the rank's id within its program.
func (r *Rank) ProgramRank() int { return r.local }

// World returns the owning world.
func (r *Rank) World() *World { return r.world }

// Now returns the rank's current virtual time.
func (r *Rank) Now() des.Time { return r.proc.Now() }

// Compute advances the rank's virtual time by d, modeling local
// computation.
func (r *Rank) Compute(d time.Duration) {
	r.proc.Sleep(d)
}

func (r *Rank) overhead() { r.proc.Sleep(callOverhead) }

// Send performs a blocking standard-mode send of size bytes (payload may be
// nil for size-only modeling) to rank dst of communicator c. Sends are
// eager: the call returns once the message is injected. The request lives
// on the stack: a blocking send allocates nothing beyond the pooled
// message envelope.
func (r *Rank) Send(c *Comm, dst, tag int, size int64, payload []byte) {
	r.overhead()
	var req Request
	r.IsendInto(&req, c, dst, tag, size, payload)
	r.waitOne(&req)
}

// IsendInto starts a non-blocking send into caller-owned storage: it puts a
// message for rank dst of c on the network, schedules its delivery and
// fills req without allocating it (Send keeps it on the stack, a stencil
// exchange in a slab it reuses). req must not be in flight.
func (r *Rank) IsendInto(req *Request, c *Comm, dst, tag int, size int64, payload []byte) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d of comm size %d", dst, c.Size()))
	}
	w := r.world
	srcLocal := c.LocalOf(r.global)
	if srcLocal < 0 {
		panic("mpi: Isend on a communicator the sender is not a member of")
	}
	dstGlobal := c.Global(dst)
	injected, delivered := w.net.Transfer(r.Now(), r.global, dstGlobal, size+envelope)
	msg := w.newMessage()
	msg.srcLocal, msg.tag, msg.comm, msg.size = srcLocal, tag, c.id, size
	msg.payload, msg.dst = payload, &w.ranks[dstGlobal]
	w.sim.AtCall(delivered, deliverMessage, msg)
	*req = Request{rank: r, isSend: true, doneAt: injected}
}

// IrecvInto posts a non-blocking receive matching (src, tag) on
// communicator c into caller-owned storage (see IsendInto). Use AnySource /
// AnyTag as wildcards.
func (r *Rank) IrecvInto(req *Request, c *Comm, src, tag int) {
	if c.LocalOf(r.global) < 0 {
		panic("mpi: Irecv on a communicator the receiver is not a member of")
	}
	*req = Request{rank: r, comm: c, wantSrc: src, wantTag: tag}
}

// Recv performs a blocking receive and returns the matched status and
// payload. Like Send, the request stays on the stack.
func (r *Rank) Recv(c *Comm, src, tag int) (Status, []byte) {
	r.overhead()
	var req Request
	r.IrecvInto(&req, c, src, tag)
	r.waitOne(&req)
	return req.Status, req.Payload
}

// matches reports whether msg satisfies the receive request.
func (req *Request) matches(msg *message) bool {
	if msg.comm != req.comm.id {
		return false
	}
	if req.wantSrc != AnySource && msg.srcLocal != req.wantSrc {
		return false
	}
	if req.wantTag != AnyTag && msg.tag != req.wantTag {
		return false
	}
	return true
}

// tryMatch scans the mailbox in arrival order for a message satisfying req,
// removing it, copying its results into req, and recycling the envelope.
// req.matched remains usable only as a completion flag afterwards.
func (r *Rank) tryMatch(req *Request) bool {
	for i, msg := range r.mailbox {
		if req.matches(msg) {
			copy(r.mailbox[i:], r.mailbox[i+1:])
			r.mailbox[len(r.mailbox)-1] = nil
			r.mailbox = r.mailbox[:len(r.mailbox)-1]
			req.matched = msg
			req.Status = Status{Source: msg.srcLocal, Tag: msg.tag, Size: msg.size}
			req.Payload = msg.payload
			r.world.recycleMessage(msg)
			return true
		}
	}
	return false
}

func (r *Rank) waitOne(req *Request) {
	if req.waited {
		panic("mpi: Wait called twice on the same request")
	}
	if req.rank != r {
		panic("mpi: Wait on a request owned by another rank")
	}
	if req.isSend {
		if req.doneAt > r.Now() {
			r.proc.SleepUntil(req.doneAt)
		}
	} else {
		for req.matched == nil {
			if r.tryMatch(req) {
				break
			}
			// A receive from a specific crashed peer can never match: fail
			// loudly instead of hanging silently. Fault-aware code checks
			// RankFailed before it blocks, as the vmpi streams do.
			if req.wantSrc != AnySource {
				if g := req.comm.Global(req.wantSrc); r.world.failed[g] {
					panic(&RankFailedError{Rank: g, Op: "Recv"})
				}
			}
			r.arrival.WaitFor(r.proc, r.blockedOnP2P("recv", "src", req.wantSrc, req.wantTag, req.comm))
		}
	}
	req.waited = true
}

// Waitall blocks until every request completes.
func (r *Rank) Waitall(reqs []*Request) {
	r.overhead()
	for _, req := range reqs {
		r.waitOne(req)
	}
}

// ArrivalSeq returns the rank's delivery generation counter: it increments
// once per message delivered to the mailbox. Sample it before probing, and
// pass the sample to WaitArrival to sleep without losing a wakeup.
func (r *Rank) ArrivalSeq() uint64 { return r.arrivalSeq }

// WaitArrival parks the rank until at least one message has been delivered
// after the given generation (returning immediately if one already has).
// It is the building block for multiplexed waits ("any of my stream
// tags"): sample ArrivalSeq, probe your patterns, and if nothing matched,
// WaitArrival with the sample — deliveries that raced with the probes are
// not lost. The why string is reported in deadlock diagnostics.
func (r *Rank) WaitArrival(seq uint64, why string) {
	for r.arrivalSeq <= seq {
		r.arrival.Wait(r.proc, why)
	}
}

// Iprobe reports whether a message matching (src, tag) is available on c
// without receiving it. It allocates nothing: stream progress loops probe
// on every iteration.
func (r *Rank) Iprobe(c *Comm, src, tag int) (bool, Status) {
	r.overhead()
	for _, msg := range r.mailbox {
		if msg.comm != c.id {
			continue
		}
		if src != AnySource && msg.srcLocal != src {
			continue
		}
		if tag != AnyTag && msg.tag != tag {
			continue
		}
		return true, Status{Source: msg.srcLocal, Tag: msg.tag, Size: msg.size}
	}
	return false, Status{}
}
