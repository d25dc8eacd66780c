// Package blackboard implements the paper's parallel blackboard: a
// data-centric task engine where typed data entries trigger knowledge
// sources (KS), giving analyses natural data-flow parallelism.
//
// Model (paper §III-B):
//
//   - A data entry is a tuple {Type, Size, Payload}.
//   - A knowledge source is {sensitivities, operation}: a set of entry
//     types that, once all satisfied, trigger the operation over the
//     matched entries. A KS may list the same type several times (the job
//     then consumes that many entries of the type).
//   - When an entry is posted, matching sensitivities are looked up in a
//     hash table; the entry is queued on the KS's least-filled matching
//     slot; when it fills the last unsatisfied slot a job
//     {entries, operation} is created.
//   - Jobs are pushed to a random FIFO from an array of individually
//     locked FIFOs to reduce contention; a pool of workers sweeps the
//     FIFOs from random starting points, with a back-off mechanism instead
//     of spinning when the board is empty.
//   - Entries are reference counted and read-mostly: an entry is writable
//     only while its refcount is 1. Posted payloads are released
//     automatically once every processing that references them completes
//     (PostOwned; an entry a KS derives from its input holds the input,
//     PostFrom), which is how the blackboard doubles as the temporary
//     storage that frees the stream's communication buffers.
//   - Multi-level blackboards (one level per instrumented application) are
//     encoded in the type identifier: TypeID hashes level and type name
//     together, so identical KSs and data types coexist per level
//     (paper Figure 5).
//
// The board is the paper's single engine: one sensitivity table and one
// array of 2×Workers job FIFOs swept by every worker. The table is a
// copy-on-write map published through an atomic pointer, so a post looks
// up its listeners without a lock, and each KS indexes its own slots by
// type under its own mutex.
//
// KSs may register or remove KSs — including themselves — at runtime,
// which is the paper's simplified form of opportunistic reasoning.
package blackboard

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Type identifies a kind of data entry on the board. Use TypeID to derive
// one from a level and a type name.
type Type uint64

// TypeID hashes a blackboard level and a data-type name into a Type. The
// same type name on different levels yields different identifiers, which is
// how one engine hosts one logical blackboard per instrumented application.
func TypeID(level, name string) Type {
	h := fnv.New64a()
	h.Write([]byte(level))
	h.Write([]byte{0})
	h.Write([]byte(name))
	return Type(h.Sum64())
}

// Entry is a reference-counted data entry.
type Entry struct {
	// Type is the entry's type identifier.
	Type Type
	// Size is the nominal payload size in bytes (bookkeeping; the engine
	// never inspects payloads).
	Size int64
	// Payload is an arbitrary blob: raw bytes from a stream, a decoded
	// event, a partial analysis product...
	Payload any

	refs atomic.Int32
	// release (PostOwned) runs on the payload, and from (PostFrom) is
	// released, when the last reference is dropped; then an entry a board
	// made (pooled) goes back to the pool.
	release func(any)
	from    *Entry
	pooled  bool
}

// pool holds board-made entries whose last reference is gone, for any
// board's next post: a board lives one run, the pool the process.
var pool struct {
	sync.Mutex
	free []*Entry
}

// NewEntry creates an entry with a reference count of 1 (owned by the
// caller); the board never reuses it.
func NewEntry(t Type, size int64, payload any) *Entry {
	e := &Entry{Type: t, Size: size, Payload: payload}
	e.refs.Store(1)
	return e
}

// Retain adds a reference.
func (e *Entry) Retain() { e.refs.Add(1) }

// Release drops a reference. It reports whether this was the last
// reference: the entry's storage is then reclaimable, and the entry runs
// its release function and releases the entry it was derived from. An
// entry the board made is then pooled for reuse: nothing may touch it.
func (e *Entry) Release() bool {
	n := e.refs.Add(-1)
	if n < 0 {
		panic("blackboard: Release of an already-freed entry")
	}
	if n > 0 {
		return false
	}
	if e.release != nil {
		e.release(e.Payload)
	}
	if e.from != nil {
		e.from.Release()
	}
	if e.pooled {
		*e = Entry{pooled: true}
		pool.Lock()
		pool.free = append(pool.free, e)
		pool.Unlock()
	}
	return true
}

// Operation is a knowledge source's code: it receives the matched entries
// (one per sensitivity slot, in slot order; an op that keeps one past its
// return must Retain it) and may post entries or (un)register KSs.
type Operation func(bb *Blackboard, inputs []*Entry)

// WorkerOperation is an Operation that also receives the id of the pool
// worker executing it (0 ≤ id < Workers). A KS whose state is partitioned
// per worker — e.g. the analysis fold KS writing worker-local module
// replicas — uses the id to pick its partition without any locking: the
// same worker id is never live twice concurrently.
type WorkerOperation func(bb *Blackboard, worker int, inputs []*Entry)

// KS describes a knowledge source.
type KS struct {
	// Name identifies the KS for Unregister and diagnostics.
	Name string
	// Sensitivities are the entry types that trigger Op; duplicates mean
	// the job consumes several entries of that type.
	Sensitivities []Type
	// Op runs once per satisfied sensitivity set.
	Op Operation
	// OpW is the worker-aware alternative to Op: exactly one of the two
	// must be set.
	OpW WorkerOperation
}

// ksState is a registered KS plus its pending-entry slots.
type ksState struct {
	ks   KS
	mu   sync.Mutex
	pend []fifo[*Entry] // one FIFO per sensitivity slot
	// spare holds the more slices of finished jobs, for the next to fill.
	spare [][]*Entry
	// slots indexes the sensitivity slots by type, so offer walks only the
	// slots matching the entry.
	slots map[Type][]int
	// dead flags a state Unregister removed that a published snapshot may
	// still list: its offers are discarded, never parked on dead slots.
	dead bool
	jobs atomic.Int64
	// lat is the KS's wall-clock job latency histogram, resolved at
	// Register when telemetry is attached (nil otherwise).
	lat *telemetry.Histogram
}

// job is one triggered operation: first fills the KS's first slot, more
// (nil for a one-slot KS) the others, in slot order.
type job struct {
	st    *ksState
	first *Entry
	more  []*Entry
}

// Config parameterizes the engine.
type Config struct {
	// Workers is the worker pool size (default: 4). The board keeps
	// 2×Workers job FIFOs.
	Workers int
}

// Stats is a snapshot of engine counters.
type Stats struct {
	// Posted counts entries posted to the board.
	Posted int64
	// Jobs counts operations executed.
	Jobs int64
	// OpPanics counts knowledge-source operations that panicked and were
	// isolated.
	OpPanics int64
	// Dropped counts entries discarded undelivered: posts after Close (a
	// closed board sheds load, as in a degraded shutdown whose streams
	// still flush) and entries whose listener vanished in a re-registration.
	Dropped int64
	// Unclaimed counts posted entries that found no listener and were
	// released undelivered. It closes the delivery ledger: every entry
	// PostEntry gets is delivered, parked, or counted here or in Dropped.
	Unclaimed int64
}

// sensMap is a published, immutable sensitivity table: readers load it
// through an atomic pointer and never lock; registration clones, edits
// and republishes (copy-on-write), cloning the listener slice of every
// type it touches so published slices are immutable too.
type sensMap = map[Type][]*ksState

// Blackboard is the parallel engine. Create with New, stop with Close.
type Blackboard struct {
	// regMu serializes registration changes (rare); the hot path never
	// takes it — posts read the published table lock-free.
	regMu  sync.RWMutex
	byName map[string]*ksState
	sens   atomic.Pointer[sensMap]

	queues   []jobFIFO
	seed     atomic.Int64 // queue-selection randomness
	queued   atomic.Int64 // jobs sitting in the FIFOs
	idleMu   sync.Mutex
	idleCond *sync.Cond
	workers  int

	inflight atomic.Int64 // queued + executing jobs
	drainMu  sync.Mutex
	drain    *sync.Cond
	closed   atomic.Bool
	wg       sync.WaitGroup

	posted    atomic.Int64
	jobsDone  atomic.Int64
	panics    atomic.Int64
	dropped   atomic.Int64
	unclaimed atomic.Int64

	// tel mirrors the counters into a telemetry bundle when attached. An
	// atomic pointer because workers read it concurrently with SetTelemetry.
	tel atomic.Pointer[telemetry.BoardMetrics]
}

// SetTelemetry attaches a telemetry bundle (nil detaches). Attach before
// registering knowledge sources: per-KS latency histograms are resolved at
// Register time, so KSs registered earlier report counters but no latency
// distribution.
func (bb *Blackboard) SetTelemetry(m *telemetry.BoardMetrics) {
	bb.tel.Store(m)
}

// nextRand is a tiny splitmix step: cheap, lock-free queue selection.
func (bb *Blackboard) nextRand() uint64 {
	z := uint64(bb.seed.Add(-0x61c8864680b583eb)) // += 0x9e3779b97f4a7c15 (two's complement)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

type jobFIFO struct {
	mu sync.Mutex
	fifo[job]
	_ [40]byte // pad to keep adjacent locks off one cache line
}

// fifo is a queue that keeps its storage: pop is O(1) amortized, an
// emptied queue restarts at the front and a consumed prefix over half the
// slice is compacted away, so a warm queue pushes without growing.
type fifo[T any] struct {
	items []T
	head  int // index of the next item to pop
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) pop() (v T, ok bool) {
	if q.head >= len(q.items) {
		return v, false
	}
	v, q.items[q.head] = q.items[q.head], v
	q.head++
	if q.head == len(q.items) || q.head > len(q.items)/2 && q.head > 32 {
		q.items, q.head = q.items[:copy(q.items, q.items[q.head:])], 0
	}
	return v, true
}

// New creates and starts a blackboard engine.
func New(cfg Config) *Blackboard {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	bb := &Blackboard{
		byName:  make(map[string]*ksState),
		queues:  make([]jobFIFO, 2*cfg.Workers),
		workers: cfg.Workers,
	}
	empty := make(sensMap)
	bb.sens.Store(&empty)
	bb.idleCond = sync.NewCond(&bb.idleMu)
	bb.drain = sync.NewCond(&bb.drainMu)
	bb.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go bb.worker(i)
	}
	return bb
}

// Register adds a knowledge source. It may be called concurrently,
// including from inside an Operation.
func (bb *Blackboard) Register(ks KS) error {
	if ks.Name == "" {
		return fmt.Errorf("blackboard: KS needs a name")
	}
	if len(ks.Sensitivities) == 0 {
		return fmt.Errorf("blackboard: KS %q has no sensitivities", ks.Name)
	}
	if ks.Op == nil && ks.OpW == nil {
		return fmt.Errorf("blackboard: KS %q has no operation", ks.Name)
	}
	if ks.Op != nil && ks.OpW != nil {
		return fmt.Errorf("blackboard: KS %q sets both Op and OpW", ks.Name)
	}
	st := &ksState{
		ks:    ks,
		pend:  make([]fifo[*Entry], len(ks.Sensitivities)),
		slots: make(map[Type][]int, len(ks.Sensitivities)),
	}
	for i, t := range ks.Sensitivities {
		st.slots[t] = append(st.slots[t], i)
	}
	st.lat = bb.tel.Load().KSLatency(ks.Name)
	bb.regMu.Lock()
	defer bb.regMu.Unlock()
	if _, dup := bb.byName[ks.Name]; dup {
		return fmt.Errorf("blackboard: KS %q already registered", ks.Name)
	}
	bb.byName[ks.Name] = st
	// Republish the table once, appending st under every distinct type it
	// listens to (slots already de-duplicates).
	next := maps.Clone(*bb.sens.Load())
	for t := range st.slots {
		next[t] = append(slices.Clip(next[t]), st)
	}
	bb.sens.Store(&next)
	return nil
}

// Unregister removes a knowledge source by name; the entries parked on its
// partially satisfied sensitivity sets are released undelivered and
// ledgered in Stats.Dropped like every other discard. Removing an unknown
// name is a no-op so a KS can safely remove itself from inside its own
// operation.
func (bb *Blackboard) Unregister(name string) {
	bb.regMu.Lock()
	st, ok := bb.byName[name]
	if ok {
		delete(bb.byName, name)
		// Republish the table without st. A post may still hold the
		// previous snapshot; the dead flag below makes its late offers
		// discard (and ledger) instead of parking forever.
		next := maps.Clone(*bb.sens.Load())
		for t := range st.slots {
			nl := slices.DeleteFunc(slices.Clone(next[t]), func(s *ksState) bool { return s == st })
			if len(nl) == 0 {
				delete(next, t)
			} else {
				next[t] = nl
			}
		}
		bb.sens.Store(&next)
	}
	bb.regMu.Unlock()
	if !ok {
		return
	}
	st.mu.Lock()
	st.dead = true
	pend := st.pend
	st.pend = nil
	st.mu.Unlock()
	for _, slot := range pend {
		for _, e := range slot.items[slot.head:] {
			bb.dropped.Add(1)
			bb.tel.Load().OnDrop()
			e.Release()
		}
	}
}

// Registered reports whether a KS with the given name is on the board.
func (bb *Blackboard) Registered(name string) bool {
	bb.regMu.RLock()
	defer bb.regMu.RUnlock()
	_, ok := bb.byName[name]
	return ok
}

// Post creates an entry and places it on the board. Equivalent to
// PostEntry(NewEntry(...)) where the board consumes the caller's
// reference, except that the entry is pooled for reuse.
func (bb *Blackboard) Post(t Type, size int64, payload any) { bb.post(t, size, payload, nil, nil) }

// PostOwned is Post for a payload whose storage the caller hands over:
// release, unless nil, runs once on the payload, when the entry's last
// reference is dropped — after every job that read it, or when the board
// discards it. This is how the paper frees stream buffers.
func (bb *Blackboard) PostOwned(t Type, size int64, payload any, release func(any)) {
	bb.post(t, size, payload, release, nil)
}

// PostFrom is Post for a payload a knowledge source passes on from its
// input entry from: the new entry holds a reference on from until its own
// last reference is dropped, so whatever from releases outlives every job
// that reads the payload under its new type.
func (bb *Blackboard) PostFrom(from *Entry, t Type, size int64, payload any) {
	from.Retain()
	bb.post(t, size, payload, nil, from)
}

// post is PostEntry of an entry from the pool.
func (bb *Blackboard) post(t Type, size int64, payload any, release func(any), from *Entry) {
	var e *Entry
	pool.Lock()
	if n := len(pool.free) - 1; n >= 0 {
		e, pool.free = pool.free[n], pool.free[:n]
	} else {
		e = NewEntry(t, size, payload)
		e.pooled = true
	}
	pool.Unlock()
	e.Type, e.Size, e.Payload, e.release, e.from = t, size, payload, release, from
	e.refs.Store(1)
	bb.PostEntry(e)
}

// PostEntry places an entry on the board, consuming the caller's
// reference: once every triggered processing completes, the payload is
// unreachable — returned by its release function (PostOwned), or left to
// the garbage collector, with the refcount still governing writability.
//
// The hot path is lock-free up to the matched KSs' slot mutexes: the
// sensitivity table is an immutable published map (registration
// republishes a clone), so the lookup takes no lock and the listener list
// needs no defensive copy. Registration during posting affects later
// posts only.
func (bb *Blackboard) PostEntry(e *Entry) {
	if bb.closed.Load() {
		// A stopped board drops rather than panics: late posts are
		// expected when an analyzer shuts down while writers are still
		// draining in degraded mode.
		bb.dropped.Add(1)
		bb.tel.Load().OnDrop()
		e.Release()
		return
	}
	bb.posted.Add(1)
	bb.tel.Load().OnPost()
	listeners := (*bb.sens.Load())[e.Type]
	if len(listeners) == 0 {
		bb.unclaimed.Add(1)
		bb.tel.Load().OnDrop()
	}
	for _, st := range listeners {
		e.Retain()
		j, ok := st.offer(e)
		if !ok {
			// The entry was discarded undelivered: count it, like every
			// other discard path, so Stats.Dropped stays a complete ledger.
			bb.dropped.Add(1)
			bb.tel.Load().OnDrop()
			continue
		}
		if j.first != nil {
			bb.push(j)
		}
	}
	e.Release() // the board consumed the caller's reference
}

// offer places e on the KS's least-filled matching slot and, if every slot
// is non-empty, pops one entry per slot as a job's inputs. The second
// return is false when the entry was discarded instead of enqueued.
func (st *ksState) offer(e *Entry) (job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dead {
		// The published snapshot raced with Unregister: nobody will ever
		// drain these slots, so parking would leak the entry.
		e.Release()
		return job{}, false
	}
	best := -1
	for _, i := range st.slots[e.Type] {
		if best < 0 || st.pend[i].len() < st.pend[best].len() {
			best = i
		}
	}
	if best < 0 {
		// Listener snapshot raced with a re-registration under the same
		// name and the replacement does not match this type.
		e.Release()
		return job{}, false
	}
	st.pend[best].items = append(st.pend[best].items, e)
	for i := range st.pend {
		if st.pend[i].len() == 0 {
			return job{}, true
		}
	}
	j := job{st: st}
	if n := len(st.spare) - 1; n >= 0 {
		j.more, st.spare = st.spare[n], st.spare[:n]
	} else if len(st.pend) > 1 {
		j.more = make([]*Entry, len(st.pend)-1)
	}
	j.first, _ = st.pend[0].pop()
	for i := range j.more {
		j.more[i], _ = st.pend[i+1].pop()
	}
	return j, true
}

// push enqueues a job on a random FIFO and wakes one worker. The queued
// counter is raised before the signal and checked by workers under
// idleMu, so a signal can never be lost between a failed sweep and the
// wait.
func (bb *Blackboard) push(j job) {
	bb.inflight.Add(1)
	q := &bb.queues[bb.nextRand()%uint64(len(bb.queues))]
	q.mu.Lock()
	q.items = append(q.items, j)
	q.mu.Unlock()
	bb.tel.Load().QueueDepth(bb.queued.Add(1))
	bb.idleMu.Lock()
	bb.idleCond.Signal()
	bb.idleMu.Unlock()
}

// steal sweeps the FIFOs from a random starting point.
func (bb *Blackboard) steal(rng *rand.Rand) (job, bool) {
	n := len(bb.queues)
	start := rng.Intn(n)
	for k := 0; k < n; k++ {
		q := &bb.queues[(start+k)%n]
		q.mu.Lock()
		if j, ok := q.pop(); ok {
			q.mu.Unlock()
			bb.tel.Load().QueueDepth(bb.queued.Add(-1))
			return j, true
		}
		q.mu.Unlock()
	}
	return job{}, false
}

func (bb *Blackboard) worker(id int) {
	defer bb.wg.Done()
	rng := rand.New(rand.NewSource(int64(id)*0x9e37 + 1))
	var in []*Entry // the running job's inputs, reused job after job
	for {
		j, ok := bb.steal(rng)
		if !ok {
			// Back-off: wait for a push instead of spinning over the
			// locks (paper §III-B). Re-checking the queued counter under
			// idleMu makes the wait race-free against push's signal.
			bb.tel.Load().OnBackoff()
			bb.idleMu.Lock()
			if bb.closed.Load() {
				bb.idleMu.Unlock()
				return
			}
			if bb.queued.Load() > 0 {
				bb.idleMu.Unlock()
				continue
			}
			bb.idleCond.Wait()
			bb.idleMu.Unlock()
			continue
		}
		in = append(append(in[:0], j.first), j.more...)
		if j.st.lat != nil {
			start := time.Now()
			bb.runOp(id, j.st, in)
			j.st.lat.Observe(int64(time.Since(start)))
		} else {
			bb.runOp(id, j.st, in)
		}
		j.st.jobs.Add(1)
		bb.jobsDone.Add(1)
		bb.tel.Load().OnJob()
		for i, e := range in {
			e.Release()
			in[i] = nil
		}
		if j.more != nil {
			clear(j.more)
			j.st.mu.Lock()
			j.st.spare = append(j.st.spare, j.more)
			j.st.mu.Unlock()
		}
		if bb.inflight.Add(-1) == 0 {
			bb.drainMu.Lock()
			bb.drain.Broadcast()
			bb.drainMu.Unlock()
		}
	}
}

// Drain blocks until no jobs are queued or executing. Posts made by
// running operations extend the wait (the whole cascade settles). Entries
// parked on partially satisfied sensitivity sets do not count: they are
// data at rest, not work.
func (bb *Blackboard) Drain() {
	bb.drainMu.Lock()
	defer bb.drainMu.Unlock()
	for bb.inflight.Load() != 0 {
		bb.drain.Wait()
	}
}

// Close drains the board and stops the workers. The board must not be used
// afterwards.
func (bb *Blackboard) Close() {
	bb.Drain()
	bb.closed.Store(true)
	bb.idleMu.Lock()
	bb.idleCond.Broadcast()
	bb.idleMu.Unlock()
	bb.wg.Wait()
}

// runOp executes one job's operation, isolating panics: a faulty
// knowledge source (the paper's KSs are third-party plugins loaded from
// shared libraries) must not take the engine down. The panic is counted
// and the job's inputs are released normally.
func (bb *Blackboard) runOp(worker int, st *ksState, in []*Entry) {
	defer func() {
		if r := recover(); r != nil {
			bb.panics.Add(1)
		}
	}()
	if st.ks.OpW != nil {
		st.ks.OpW(bb, worker, in)
		return
	}
	st.ks.Op(bb, in)
}

// Workers returns the worker pool size: the number of distinct worker ids
// a WorkerOperation can observe.
func (bb *Blackboard) Workers() int { return bb.workers }

// Stats returns a snapshot of the engine counters.
func (bb *Blackboard) Stats() Stats {
	return Stats{
		Posted:    bb.posted.Load(),
		Jobs:      bb.jobsDone.Load(),
		OpPanics:  bb.panics.Load(),
		Dropped:   bb.dropped.Load(),
		Unclaimed: bb.unclaimed.Load(),
	}
}
