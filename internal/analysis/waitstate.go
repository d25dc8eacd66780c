package analysis

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"repro/internal/trace"
)

// WaitStateModule implements the wait-state analysis the paper announces
// as work in progress (§IV-D): a Scalasca-style classification of
// point-to-point waiting time, made possible precisely because the
// blackboard holds events from *all* ranks of an application — a
// same-process view no purely local reduction can build.
//
// The module pairs send-side events (MPI_Send / MPI_Isend) with the
// matching receive-side events (MPI_Recv, and MPI_Wait completions that
// carry their source) in FIFO order per (sender, receiver, tag,
// communicator) channel, the MPI non-overtaking rule. A receive that
// started before its matching send is a Late Sender: the receiver's time
// between its own start and the send's start is pure wait, attributed to
// the receiving rank.
//
// Pairing is deferred, not eager: Add only inserts the event into its
// channel's time-sorted queue, and matched pairs are settled positionally
// when results are read (or queues are merged/encoded). The parallel
// blackboard hands a knowledge source events in job-scheduling order, not
// time order, so pairing "send with oldest queued recv" at arrival time
// would make the matching depend on worker scheduling. Deferred positional
// pairing over sorted queues reconstructs the channel's true FIFO
// matching whatever order the events arrived in — and is exactly the
// operation the reduction tree's MergeFull performs, so a tree of
// partial profiles settles to the same pairs as the flat analysis.
// The trade-off is queue memory proportional to the channel's message
// count between settles rather than to in-flight messages. A settle costs
// what was written since the last one: it drains the unsettled list — the
// records that gained an entry — and never ranges the channel map.
//
// Send-side blocking (Late Receiver) does not occur under the eager
// protocol this runtime models, so only the receive side is classified.
type WaitStateModule struct {
	mu   sync.Mutex
	size int

	// chans holds each channel's pending events. A record stays in the
	// map once its queues drain, so the next event on the channel costs one
	// lookup and an append into capacity it already has; every reader and
	// encoder skips empty queues.
	chans map[chanKey]*chanQueues
	// slab is the unused rest of the chunk new records are cut from: a
	// run touches thousands of channels, one allocation each otherwise.
	// sendStore and recvStore do the same for the queues' storage.
	slab      []chanQueues
	sendStore queueStore[int64]
	recvStore queueStore[recvEvt]
	// unsettled lists the records that gained an entry since the last
	// settle, each once (chanQueues.listed). A settle leaves no record
	// holding both sides, so these are the only ones the next settle can
	// pair. A lazy module just accumulates the list until read time.
	unsettled []*chanQueues

	// lateNs / lateHits accumulate late-sender wait per receiving rank.
	lateNs   []int64
	lateHits []int64
	pairs    int64

	// lazy suppresses settling on merge, flush and encode (not on the
	// read accessors). Set on per-window modules: a window holds only a
	// slice of each channel's queues, and positional pairing within that
	// slice is not a prefix of the channel's whole-run FIFO matching when
	// a channel straddles a window boundary — settling early would make
	// the merge of all windows diverge from the whole-run module. Lazy
	// queues travel un-paired and settle once, at read time, when the
	// series is complete.
	lazy bool
}

type chanKey struct {
	src, dst int32
	tag      int32
	comm     uint32
}

// chanQueues is one channel's two pending queues, each sorted by time (=
// the channel's FIFO order, since each side originates at a single rank).
type chanQueues struct {
	sends  []int64 // send start times
	recvs  []recvEvt
	listed bool // in the module's unsettled list
}

type recvEvt struct {
	rank   int32
	tStart int64
	tEnd   int64
}

// NewWaitStateModule creates a wait-state module for an application of the
// given rank count.
func NewWaitStateModule(size int) *WaitStateModule {
	return &WaitStateModule{
		size:     size,
		chans:    make(map[chanKey]*chanQueues),
		lateNs:   make([]int64, size),
		lateHits: make([]int64, size),
	}
}

// Add inserts one event into its channel queue (no pairing yet — see the
// type comment).
func (m *WaitStateModule) Add(ev *trace.Event) {
	m.mu.Lock()
	m.fold(ev)
	m.mu.Unlock()
}

func (m *WaitStateModule) fold(ev *trace.Event) {
	switch ev.Kind {
	case trace.KindSend, trace.KindIsend:
		if ev.Peer < 0 {
			return
		}
		q := m.queues(chanKey{src: ev.Rank, dst: ev.Peer, tag: ev.Tag, comm: ev.Comm})
		q.sends = insertSorted(q.sends, ev.TStart, cmp.Less[int64], &m.sendStore)
		m.list(q)
	case trace.KindRecv, trace.KindWait:
		if ev.Peer < 0 {
			return // wildcard completion without source: unmatchable
		}
		// Wait events carry the matched source but not the original tag;
		// they pair only if a tag was recorded.
		if ev.Kind == trace.KindWait && ev.Tag < 0 {
			return
		}
		q := m.queues(chanKey{src: ev.Peer, dst: ev.Rank, tag: ev.Tag, comm: ev.Comm})
		q.recvs = insertSorted(q.recvs, recvEvt{rank: ev.Rank, tStart: ev.TStart, tEnd: ev.TEnd}, lessRecv, &m.recvStore)
		m.list(q)
	}
}

// queues returns channel k's record, minting it on first use.
func (m *WaitStateModule) queues(k chanKey) *chanQueues {
	q := m.chans[k]
	if q == nil {
		if len(m.slab) == 0 {
			m.slab = make([]chanQueues, 32)
		}
		q, m.slab = &m.slab[0], m.slab[1:]
		m.chans[k] = q
	}
	return q
}

// list enters q, which just gained an entry, in the unsettled list.
func (m *WaitStateModule) list(q *chanQueues) {
	if !q.listed {
		q.listed = true
		m.unsettled = append(m.unsettled, q)
	}
}

// merged pairs what a merge just put into q — now, or on a lazy module at
// read time.
func (m *WaitStateModule) merged(q *chanQueues) {
	if m.lazy {
		m.list(q)
	} else {
		m.drain(q)
	}
}

// queueStore cuts queue storage from chunks, so a module allocates per
// chunk and not per channel per doubling: a new window touches thousands
// of queues that each hold a dozen entries. Storage a queue outgrows stays
// behind in its chunk.
type queueStore[T any] struct {
	free  []T // unused rest of the current chunk
	chunk int // length of that chunk
}

const (
	// firstQueueCut is a queue's first capacity; it doubles from there.
	firstQueueCut = 16
	// maxQueueChunk caps the chunks, which double from four first cuts: a
	// module with one event must not pay for one with thousands of queues.
	maxQueueChunk = 4096
)

// grow moves the full queue q into storage twice its size.
func (s *queueStore[T]) grow(q []T) []T {
	n := max(firstQueueCut, 2*cap(q))
	if len(s.free) < n {
		s.chunk = min(max(2*s.chunk, 4*firstQueueCut), maxQueueChunk)
		s.free = make([]T, max(n, s.chunk))
	}
	out := s.free[:len(q):n]
	s.free = s.free[n:]
	copy(out, q)
	return out
}

func lessRecv(a, b recvEvt) bool {
	if a.tStart != b.tStart {
		return a.tStart < b.tStart
	}
	return a.tEnd < b.tEnd
}

// insertSorted inserts v into the sorted queue q, after any equal
// elements (stable), taking room from store when q is full. The common
// case — in-order arrival — is a plain append.
func insertSorted[T any](q []T, v T, less func(x, y T) bool, store *queueStore[T]) []T {
	if len(q) == cap(q) {
		q = store.grow(q)
	}
	if n := len(q); n == 0 || !less(v, q[n-1]) {
		return append(q, v)
	}
	i := sort.Search(len(q), func(i int) bool { return less(v, q[i]) })
	q = append(q, v)
	copy(q[i+1:], q[i:])
	q[i] = v
	return q
}

// settleLocked positionally pairs every channel that currently holds both
// sides: they are all in the unsettled list. Called with m.mu held.
func (m *WaitStateModule) settleLocked() {
	for _, q := range m.unsettled {
		m.drain(q)
		q.listed = false
	}
	m.unsettled = m.unsettled[:0]
}

// pair classifies one matched (recv, sendStart) pair. Called with m.mu
// held.
func (m *WaitStateModule) pair(rv recvEvt, sendStart int64) {
	m.pairs++
	if sendStart <= rv.tStart {
		return // sender was ready: no late-sender wait
	}
	wait := sendStart - rv.tStart
	if rv.tEnd-rv.tStart < wait {
		wait = rv.tEnd - rv.tStart
	}
	if wait <= 0 {
		return
	}
	if uint32(rv.rank) < uint32(m.size) { // a decoded rank can be negative
		m.lateNs[rv.rank] += wait
		m.lateHits[rv.rank]++
	}
}

// Pairs reports how many send/recv pairs were matched.
func (m *WaitStateModule) Pairs() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.settleLocked()
	return m.pairs
}

// Unmatched reports how many events are still waiting for their partner
// (non-zero after a run usually means sampled transports or wildcard
// completions).
func (m *WaitStateModule) Unmatched() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.settleLocked()
	var n int64
	for _, q := range m.chans {
		n += int64(len(q.sends) + len(q.recvs))
	}
	return n
}

// LateSenderMap returns per-rank late-sender wait time in nanoseconds — a
// density map like the paper's Figure 18d, but attributing the wait to its
// cause.
func (m *WaitStateModule) LateSenderMap() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.settleLocked()
	out := make([]float64, m.size)
	for r, v := range m.lateNs {
		out[r] = float64(v)
	}
	return out
}

// LateSenderHits returns per-rank late-sender occurrence counts.
func (m *WaitStateModule) LateSenderHits() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.settleLocked()
	out := make([]int64, m.size)
	copy(out, m.lateHits)
	return out
}

// TotalLateNs sums late-sender wait across ranks.
func (m *WaitStateModule) TotalLateNs() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.settleLocked()
	var t int64
	for _, v := range m.lateNs {
		t += v
	}
	return t
}

// Merge folds another wait-state module's per-rank accumulators into this
// one (pending unmatched events are not transferred, so o is settled
// first to realize every pair its queues already hold).
func (m *WaitStateModule) Merge(o *WaitStateModule) {
	o.mu.Lock()
	o.settleLocked()
	ln := append([]int64(nil), o.lateNs...)
	lh := append([]int64(nil), o.lateHits...)
	pr := o.pairs
	o.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pairs += pr
	for r := range ln {
		if r < m.size {
			m.lateNs[r] += ln[r]
			m.lateHits[r] += lh[r]
		}
	}
}

// MergeFull folds another wait-state module into this one *including*
// the pending unmatched queues; channels that now hold both sides pair at
// m's next settle (a read accessor, Flush or encode). Per channel, all
// sends originate at one rank and all receives at another, and each
// rank's stream is time-ordered — so every pending queue is sorted by
// time and a sorted merge reconstructs the channel's true FIFO order.
// Positional pairing at a settle reproduces exactly the pairs the flat
// single-blackboard analysis would have formed on one condition: each side
// of a channel is a prefix of that side's sends or receives. A module fed
// each writer's packs in order (a tree leaf, a fused or daemon lane) meets
// it at every settle; board replicas meet it only once all of them have
// merged, since any worker may fold any of a writer's packs. That makes
// MergeFull associative and commutative: the invariant the reduction tree
// is built on.
func (m *WaitStateModule) MergeFull(o *WaitStateModule) {
	o.mu.Lock()
	c := &WaitStateModule{pairs: o.pairs, lateNs: slices.Clone(o.lateNs), lateHits: slices.Clone(o.lateHits),
		chans: make(map[chanKey]*chanQueues, len(o.chans))}
	for k, q := range o.chans {
		if len(q.sends)+len(q.recvs) > 0 {
			c.chans[k] = &chanQueues{sends: slices.Clone(q.sends), recvs: slices.Clone(q.recvs)}
		}
	}
	o.mu.Unlock()
	m.mergeResetFull(c)
}

// mergeResetFull is MergeFull with move semantics (MergeFull is this,
// applied to a copy): o's queues and accumulators are transferred into m
// and o is left empty, without copying. Merged channels are only listed,
// not paired: a board replica may hold a non-prefix of a channel's sends
// or receives, and pairing it against m now would match the wrong
// partners, so pairing waits for m's next settle, which the board path
// reaches once Pipeline.Settle has merged every replica and each side is
// a prefix again (MergeFull's condition). A queue whose counterpart in m is
// empty changes owner instead of being duplicated (the two sides swap
// backing arrays, so both keep their capacity), and an epoch merge of a
// drained replica allocates nothing. The caller must own o exclusively (it
// is a paused replica).
func (m *WaitStateModule) mergeResetFull(o *WaitStateModule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pairs += o.pairs
	o.pairs = 0
	for r := range o.lateNs {
		if r < m.size {
			m.lateNs[r] += o.lateNs[r]
			m.lateHits[r] += o.lateHits[r]
		}
		o.lateNs[r], o.lateHits[r] = 0, 0
	}
	for k, oq := range o.chans {
		if len(oq.sends)+len(oq.recvs) == 0 {
			continue
		}
		q := m.queues(k)
		q.sends, oq.sends = moveSorted(q.sends, oq.sends, cmp.Less[int64])
		q.recvs, oq.recvs = moveSorted(q.recvs, oq.recvs, lessRecv)
		m.list(q)
	}
	// Nothing is left in o to pair.
	for _, oq := range o.unsettled {
		oq.listed = false
	}
	o.unsettled = o.unsettled[:0]
}

// moveSorted merges the sorted queue src into the sorted queue dst and
// returns the merged queue and an empty one for src's owner to refill.
// Nothing is copied while dst is empty: the two swap backing arrays.
func moveSorted[T any](dst, src []T, less func(x, y T) bool) (merged, emptied []T) {
	if len(dst) == 0 {
		return src, dst[:0]
	}
	return mergeSorted(dst, src, less), src[:0]
}

// drain positionally pairs a channel's queues while both sides have
// entries and moves the survivors to the front, keeping the capacity the
// drained entries used. Called with m.mu held.
func (m *WaitStateModule) drain(q *chanQueues) {
	n := min(len(q.sends), len(q.recvs))
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		m.pair(q.recvs[i], q.sends[i])
	}
	q.sends = q.sends[:copy(q.sends, q.sends[n:])]
	q.recvs = q.recvs[:copy(q.recvs, q.recvs[n:])]
}

// mergeSorted merges two slices already sorted under less.
func mergeSorted[T any](a, b []T, less func(x, y T) bool) []T {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// EnableWaitState adds a wait-state module to the pipeline's state and
// returns it. The analysis is optional because it keeps per-channel state
// proportional to in-flight messages. Like every Enable*, call it before
// packs flow.
func (p *Pipeline) EnableWaitState() (*WaitStateModule, error) {
	if p.state.Waits != nil {
		return nil, p.alreadyEnabled("waitstate")
	}
	p.state.opts.WaitState = true
	p.state.Waits = NewWaitStateModule(p.state.opts.AppSize)
	return p.state.Waits, nil
}
