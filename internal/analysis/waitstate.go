package analysis

import (
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
// count between settles rather than to in-flight messages.
//
// Send-side blocking (Late Receiver) does not occur under the eager
// protocol this runtime models, so only the receive side is classified.
type WaitStateModule struct {
	mu   sync.Mutex
	size int

	// pending events per channel, each queue sorted by time (= the
	// channel's FIFO order, since each side originates at a single rank).
	sends map[chanKey][]int64 // send start times
	recvs map[chanKey][]recvEvt

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
		sends:    make(map[chanKey][]int64),
		recvs:    make(map[chanKey][]recvEvt),
		lateNs:   make([]int64, size),
		lateHits: make([]int64, size),
	}
}

// Add inserts one event into its channel queue (no pairing yet — see the
// type comment).
func (m *WaitStateModule) Add(ev *trace.Event) {
	switch ev.Kind {
	case trace.KindSend, trace.KindIsend:
		if ev.Peer < 0 {
			return
		}
		key := chanKey{src: ev.Rank, dst: ev.Peer, tag: ev.Tag, comm: ev.Comm}
		m.mu.Lock()
		m.sends[key] = insertSorted(m.sends[key], ev.TStart,
			func(a, b int64) bool { return a < b })
		m.mu.Unlock()
	case trace.KindRecv, trace.KindWait:
		if ev.Peer < 0 {
			return // wildcard completion without source: unmatchable
		}
		key := chanKey{src: ev.Peer, dst: ev.Rank, tag: ev.Tag, comm: ev.Comm}
		if ev.Kind == trace.KindWait {
			// Wait events carry the matched source but not the original
			// tag; fold them onto the wildcard-tag channel only if a tag
			// was recorded.
			if ev.Tag < 0 {
				return
			}
		}
		rv := recvEvt{rank: ev.Rank, tStart: ev.TStart, tEnd: ev.TEnd}
		m.mu.Lock()
		m.recvs[key] = insertSorted(m.recvs[key], rv, lessRecv)
		m.mu.Unlock()
	}
}

// fold is Add without the lock (replica fast path, caller owns m).
func (m *WaitStateModule) fold(ev *trace.Event) {
	switch ev.Kind {
	case trace.KindSend, trace.KindIsend:
		if ev.Peer < 0 {
			return
		}
		key := chanKey{src: ev.Rank, dst: ev.Peer, tag: ev.Tag, comm: ev.Comm}
		m.sends[key] = insertSorted(m.sends[key], ev.TStart,
			func(a, b int64) bool { return a < b })
	case trace.KindRecv, trace.KindWait:
		if ev.Peer < 0 {
			return
		}
		key := chanKey{src: ev.Peer, dst: ev.Rank, tag: ev.Tag, comm: ev.Comm}
		if ev.Kind == trace.KindWait && ev.Tag < 0 {
			return
		}
		rv := recvEvt{rank: ev.Rank, tStart: ev.TStart, tEnd: ev.TEnd}
		m.recvs[key] = insertSorted(m.recvs[key], rv, lessRecv)
	}
}

func lessRecv(a, b recvEvt) bool {
	if a.tStart != b.tStart {
		return a.tStart < b.tStart
	}
	return a.tEnd < b.tEnd
}

// insertSorted inserts v into the sorted queue q, after any equal
// elements (stable). The common case — in-order arrival — is a plain
// append.
func insertSorted[T any](q []T, v T, less func(x, y T) bool) []T {
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
// sides. Called with m.mu held.
func (m *WaitStateModule) settleLocked() {
	for k := range m.sends {
		if len(m.recvs[k]) > 0 {
			m.drainChannel(k)
		}
	}
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
	if int(rv.rank) < m.size {
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
	for _, q := range m.sends {
		n += int64(len(q))
	}
	for _, q := range m.recvs {
		n += int64(len(q))
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
// the pending unmatched queues, re-pairing any channels that now hold
// both sides. Per channel, all sends originate at one rank and all
// receives at another, and each rank's stream is time-ordered — so every
// pending queue is sorted by time, a sorted merge reconstructs the
// channel's true FIFO order, and positional pairing of the merged queues
// reproduces exactly the pairs the flat single-blackboard analysis would
// have formed. That makes MergeFull associative and commutative: the
// invariant the reduction tree is built on.
func (m *WaitStateModule) MergeFull(o *WaitStateModule) {
	o.mu.Lock()
	ln := append([]int64(nil), o.lateNs...)
	lh := append([]int64(nil), o.lateHits...)
	pr := o.pairs
	sends := make(map[chanKey][]int64, len(o.sends))
	for k, q := range o.sends {
		if len(q) > 0 {
			sends[k] = append([]int64(nil), q...)
		}
	}
	recvs := make(map[chanKey][]recvEvt, len(o.recvs))
	for k, q := range o.recvs {
		if len(q) > 0 {
			recvs[k] = append([]recvEvt(nil), q...)
		}
	}
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
	for k, q := range sends {
		m.sends[k] = mergeSorted(m.sends[k], q, func(a, b int64) bool { return a < b })
	}
	for k, q := range recvs {
		m.recvs[k] = mergeSorted(m.recvs[k], q, func(a, b recvEvt) bool {
			if a.tStart != b.tStart {
				return a.tStart < b.tStart
			}
			return a.tEnd < b.tEnd
		})
	}
	if !m.lazy {
		for k := range sends {
			m.drainChannel(k)
		}
		for k := range recvs {
			m.drainChannel(k)
		}
	}
}

// mergeResetFull is MergeFull with move semantics: o's queues and
// accumulators are transferred into m and o is left empty, without
// copying. Correctness is the same argument as MergeFull's — sorted
// merge + positional pairing is order-insensitive — but ownership of
// the queue backing arrays moves instead of being duplicated, so an
// epoch merge of a drained replica allocates nothing (mergeSorted
// returns the non-empty side unchanged when the other side is empty).
// The caller must own o exclusively (it is a paused replica).
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
	for k, q := range o.sends {
		if len(q) > 0 {
			m.sends[k] = mergeSorted(m.sends[k], q, func(a, b int64) bool { return a < b })
		}
		delete(o.sends, k)
	}
	for k, q := range o.recvs {
		if len(q) > 0 {
			m.recvs[k] = mergeSorted(m.recvs[k], q, lessRecv)
		}
		delete(o.recvs, k)
	}
	if !m.lazy {
		m.settleLocked()
	}
}

// drainChannel positionally pairs a channel's queues while both sides
// have entries, trimming empty queues from the maps so the module stays
// in canonical form. Called with m.mu held.
func (m *WaitStateModule) drainChannel(key chanKey) {
	sq, rq := m.sends[key], m.recvs[key]
	n := len(sq)
	if len(rq) < n {
		n = len(rq)
	}
	for i := 0; i < n; i++ {
		m.pair(rq[i], sq[i])
	}
	if len(sq) > n {
		m.sends[key] = sq[n:]
	} else {
		delete(m.sends, key)
	}
	if len(rq) > n {
		m.recvs[key] = rq[n:]
	} else {
		delete(m.recvs, key)
	}
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

// EnableWaitState adds a wait-state module to the pipeline's fold list and
// returns its module. The analysis is optional because it keeps per-channel
// state proportional to in-flight messages.
func (p *Pipeline) EnableWaitState() (*WaitStateModule, error) {
	m := NewWaitStateModule(p.Profiler.size)
	if err := p.addFold("waitstate", m.Add); err != nil {
		return nil, err
	}
	p.waits = m
	return m, nil
}
