package vmpi

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Buffering constants from the paper's Figure 9: NA receive buffers per
// incoming stream at each read endpoint, and NA output buffers shared
// between all endpoints at each write endpoint ("primarily to limit memory
// footprint" — block size tends to be large, ≈1 MB).
const (
	// NA is the number of asynchronous buffers per incoming stream on the
	// read side; it is also the writer's per-endpoint credit window.
	NA = 3
	// NAOut is the number of output buffers shared across all endpoints on
	// the write side: a writer never has more than NAOut unacknowledged
	// blocks in flight in total.
	NAOut = 3
)

// ErrAgain is returned by non-blocking reads when no block is available yet
// (the paper's VMPI_EAGAIN).
var ErrAgain = errors.New("vmpi: stream would block (EAGAIN)")

// Stream mode bits. Streams "can be either multi- or uni-directional"
// (paper §III-A): mode "rw" opens both halves over the same peer set, with
// directions disambiguated by message source.
const (
	modeR byte = 1 << iota
	modeW
)

// BalancePolicy selects how a stream endpoint distributes its operations
// over multiple remote endpoints.
type BalancePolicy int

// Stream balancing policies ("three basic policies are proposed: none,
// random, round-robin", possibly different at the two endpoints).
const (
	// BalanceNone always prefers the first endpoint in mapping order.
	BalanceNone BalancePolicy = iota
	// BalanceRandom picks endpoints uniformly at random.
	BalanceRandom
	// BalanceRoundRobin cycles over endpoints.
	BalanceRoundRobin
)

// Block is one unit of stream data received by a read endpoint.
type Block struct {
	// From is the universe rank of the writer.
	From int
	// Size is the block's payload size in bytes.
	Size int64
	// Payload holds the block's bytes; nil for size-only transfers (cost
	// modeling without data, used by large overhead sweeps).
	Payload []byte
}

// Release returns the block's payload to the trace pack pool and nils it.
// Call it only as the payload's final owner: after Release the bytes may
// be overwritten by any pack builder in the process. A consumer that keeps
// the bytes, or hands them to an analysis that recycles them itself, does
// not release. Releasing a payload-less block is a no-op.
func (b *Block) Release() {
	if b.Payload != nil {
		trace.PutBuffer(b.Payload)
		b.Payload = nil
	}
}

// RegisterPoolMetrics surfaces the process-wide pack pool through a
// telemetry registry as callback gauges sampled at snapshot time (the pool
// is process-global, so it cannot be written through a per-run handle).
func RegisterPoolMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("vmpi.pool_hits", func() int64 { hits, _ := trace.PoolCounters(); return hits })
	reg.GaugeFunc("vmpi.pool_misses", func() int64 { _, misses := trace.PoolCounters(); return misses })
}

// streamCounters is the endpoint's live counter storage. The stream's own
// operations run in simulation context (one Proc at a time), but Stats()
// may be polled concurrently by host-side observers and the telemetry
// sampler, so every counter is atomic.
type streamCounters struct {
	blocksWritten atomic.Int64
	bytesWritten  atomic.Int64
	blocksRead    atomic.Int64
	bytesRead     atomic.Int64
	writeStalls   atomic.Int64
	eagains       atomic.Int64
	quarantines   atomic.Int64
	failovers     atomic.Int64
	blocksDropped atomic.Int64
	blocksLost    atomic.Int64
	resizes       atomic.Int64
}

// StreamStats is a point-in-time copy of an endpoint's counters.
type StreamStats struct {
	// BlocksWritten / BytesWritten count completed writes.
	BlocksWritten int64
	BytesWritten  int64
	// BlocksRead / BytesRead count completed reads.
	BlocksRead int64
	BytesRead  int64
	// WriteStalls counts writes that had to block waiting for credits —
	// the paper's back-pressure, the mechanism behind instrumentation
	// overhead when the analyzer cannot keep up.
	WriteStalls int64
	// EAGAINs counts non-blocking reads that found nothing.
	EAGAINs int64
	// Quarantines counts endpoints removed from service: crashed peers,
	// peers whose reader half closed, peers that missed the write
	// deadline, and (reader side) writers that crashed before closing.
	Quarantines int64
	// Failovers counts blocks written to a surviving endpoint after at
	// least one endpoint was quarantined — traffic carried by failover.
	Failovers int64
	// BlocksDropped counts writes discarded in degraded mode (every
	// endpoint quarantined): the stream sheds measurement data instead of
	// blocking the application.
	BlocksDropped int64
	// BlocksLostInFlight counts blocks that were written (and so appear in
	// BlocksWritten) but whose endpoint was quarantined before returning a
	// credit. Under fail-stop faults these blocks were never read, closing
	// the ledger BlocksWritten = delivered + BlocksLostInFlight; under
	// deadline quarantines the count is conservative (a stalled-but-alive
	// reader may still consume the block).
	BlocksLostInFlight int64
	// WindowResizes counts runtime credit-window changes applied via
	// RequestWindow.
	WindowResizes int64
}

// Stream is a persistent asynchronous channel between this process and the
// processes of a Map (the paper's VMPI_Stream). A stream is either a read
// or a write endpoint, fixed at OpenMap time.
type Stream struct {
	sess      *Session
	blockSize int64
	policy    BalancePolicy
	channel   int
	mode      byte // mode bits (modeR | modeW), 0 before OpenMap

	// Writer state.
	peers       []int // reader universe ranks
	credits     []int
	rr          int
	outstanding int

	// Failure handling (writer side). A quarantined endpoint is out of
	// service: its in-flight credits are written off and no further blocks
	// are sent to it. When every endpoint is quarantined the stream is
	// degraded: writes are counted and dropped instead of blocking.
	writeDeadline time.Duration
	quarantined   []bool
	nQuarantined  int
	degraded      bool

	// Window sizes (default NA / NAOut).
	na    int
	naOut int

	// Runtime window retarget, written by host-side controllers (see
	// RequestWindow) and applied lazily in simulation context at the top of
	// Write / the writer-half Close drain. 0 means "no change requested".
	windowTarget atomic.Int32

	// Pack-format negotiation. A stream carries opaque blocks; what the
	// endpoints need to agree on is how the blocks' payloads are encoded.
	// A writer using a non-default format announces it once per peer at
	// open time (tagHello); a reader records each writer's announcement
	// and fails a Read loudly when an announced format exceeds what it
	// accepts, instead of letting the decoder choke on alien bytes later.
	// Default-format writers announce nothing, so format-1 traffic is
	// message-for-message identical to a pre-negotiation stream.
	packFormat    int // writer's announced payload format (0 ≡ 1)
	maxPackFormat int // reader's acceptance ceiling (0 ≡ DefaultMaxPackFormat; only tests lower it)

	// Reader state.
	writers []int // writer universe ranks
	widx    map[int]int
	closed  []bool
	nClosed int
	rrRead  int

	// Scratch storage reused across calls so the per-block hot paths do
	// not allocate: readOrder's probe order and pickWritable's candidate
	// set.
	orderBuf []int
	availBuf []int

	stats streamCounters
	tel   *telemetry.StreamMetrics
}

// SetWindow overrides the stream's asynchronous buffer counts before
// OpenMap: na receive buffers per incoming stream (the writer's
// per-endpoint credit window) and naOut shared output buffers. The paper
// fixes both at 3; making them configurable supports the buffering
// ablation study.
func (st *Stream) SetWindow(na, naOut int) {
	if st.mode != 0 {
		panic("vmpi: SetWindow after OpenMap")
	}
	if na < 1 || naOut < 1 {
		panic("vmpi: stream windows must be at least 1")
	}
	st.na, st.naOut = na, naOut
}

// RequestWindow asks the writer half to retarget its credit window to na
// buffers per endpoint (and na shared output buffers) at the next
// simulation-context-safe point. Unlike SetWindow it may be called at any
// time, from any goroutine — it is the adaptive controller's actuator: the
// request is stored atomically and applied lazily at the top of the next
// Write (or writer-half Close), where the stream's bookkeeping is owned by
// the simulation. Values below 1 are clamped to 1.
func (st *Stream) RequestWindow(na int) {
	if na < 1 {
		na = 1
	}
	st.windowTarget.Store(int32(na))
}

// Window returns the writer's current per-endpoint credit window. A
// pending RequestWindow not yet applied is not reflected.
func (st *Stream) Window() int { return st.na }

// applyWindow applies a pending RequestWindow retarget. Must run in
// simulation context. Growing the window grants each live endpoint the
// extra credits immediately; shrinking debits them, which may leave an
// endpoint's credit temporarily negative until in-flight blocks are
// acknowledged (pickWritable requires credits > 0, so the invariant
// in-flight = na - credits is preserved and quarantine write-offs stay
// exact).
func (st *Stream) applyWindow() {
	t := int(st.windowTarget.Load())
	if t == 0 || t == st.na || st.mode&modeW == 0 {
		return
	}
	delta := t - st.na
	for i := range st.credits {
		if !st.quarantined[i] {
			st.credits[i] += delta
		}
	}
	st.na = t
	st.naOut = t
	st.stats.resizes.Add(1)
	st.tel.OnWindowResize(t)
}

// NewStream initializes a stream with the given block size and balancing
// policy (the paper's VMPI_Stream_init). The stream carries blocks of at
// most blockSize bytes.
func NewStream(sess *Session, blockSize int64, policy BalancePolicy) *Stream {
	if blockSize <= 0 {
		panic("vmpi: stream block size must be positive")
	}
	return &Stream{sess: sess, blockSize: blockSize, policy: policy, na: NA, naOut: NAOut}
}

// SetChannel separates concurrent streams between the same process pairs:
// both endpoints of a stream must use the same channel number (default 0).
func (st *Stream) SetChannel(ch int) {
	if st.mode != 0 {
		panic("vmpi: SetChannel after OpenMap")
	}
	st.channel = ch
}

// DefaultMaxPackFormat is the highest payload format a reader accepts: a
// Read that has seen a writer announce a higher one fails with a
// descriptive error instead of surfacing undecodable blocks. Format 3 is
// the persistent per-stream dictionary codec; its packs must be decoded in
// per-writer order (trace.StreamDecoder), which the stream layer's
// per-writer delivery order guarantees.
const DefaultMaxPackFormat = 3

// SetPackFormat declares the payload format this writer will stream
// (before OpenMap). Formats above 1 are announced to every mapped reader
// at open time via one small hello message per peer; format 1 (or 0, the
// zero value) is the default and is never announced, keeping default
// streams message-for-message identical to pre-negotiation behavior.
func (st *Stream) SetPackFormat(v int) {
	if st.mode != 0 {
		panic("vmpi: SetPackFormat after OpenMap")
	}
	if v < 0 {
		panic("vmpi: negative pack format")
	}
	st.packFormat = v
}

// Stats returns a consistent-enough copy of the endpoint's counters. Each
// counter is loaded atomically, so Stats is safe to call from any
// goroutine (telemetry samplers, host-side observers) while the endpoint
// is live.
func (st *Stream) Stats() StreamStats {
	return StreamStats{
		BlocksWritten: st.stats.blocksWritten.Load(),
		BytesWritten:  st.stats.bytesWritten.Load(),
		BlocksRead:    st.stats.blocksRead.Load(),
		BytesRead:     st.stats.bytesRead.Load(),
		WriteStalls:   st.stats.writeStalls.Load(),
		EAGAINs:       st.stats.eagains.Load(),
		Quarantines:   st.stats.quarantines.Load(),
		Failovers:     st.stats.failovers.Load(),
		BlocksDropped: st.stats.blocksDropped.Load(),

		BlocksLostInFlight: st.stats.blocksLost.Load(),
		WindowResizes:      st.stats.resizes.Load(),
	}
}

// SetTelemetry attaches a telemetry bundle (nil allowed and free): from
// then on the endpoint mirrors its counters into the bundle's shared
// instruments and reports its credit window to the credits-in-flight
// gauge.
func (st *Stream) SetTelemetry(m *telemetry.StreamMetrics) { st.tel = m }

// SetWriteDeadline bounds how long a Write (or a writer-half Close) may
// block waiting for credits. When the deadline expires, every endpoint
// with unacknowledged blocks is quarantined and traffic fails over to the
// survivors; with none left the stream degrades to drop-counting mode.
// Zero (the default) blocks indefinitely — the paper's pure back-pressure.
func (st *Stream) SetWriteDeadline(d time.Duration) { st.writeDeadline = d }

// Degraded reports whether every mapped endpoint has been quarantined:
// writes are now counted in BlocksDropped and discarded, keeping the
// application alive at the price of measurement completeness.
func (st *Stream) Degraded() bool { return st.degraded }

func (st *Stream) tagData() int   { return tagStreamBase + st.channel*5 }
func (st *Stream) tagCredit() int { return tagStreamBase + st.channel*5 + 1 }
func (st *Stream) tagClose() int  { return tagStreamBase + st.channel*5 + 2 }

// tagReaderClose is sent by a closing reader half to its writers so a
// writer blocked on credits wakes and quarantines the endpoint instead of
// hanging forever.
func (st *Stream) tagReaderClose() int { return tagStreamBase + st.channel*5 + 3 }

// tagHello carries the writer's pack-format announcement (see
// SetPackFormat). Writers using the default format send nothing.
func (st *Stream) tagHello() int { return tagStreamBase + st.channel*5 + 4 }

// OpenMap connects the stream to the processes of a map, as a writer
// (mode "w") or reader (mode "r") endpoint — the paper's
// VMPI_Stream_open_map.
func (st *Stream) OpenMap(m *Map, mode string) error {
	return st.OpenRanks(m.Targets(), mode)
}

// OpenRanks connects the stream directly to a set of universe ranks
// ("streams can also be used between two arbitrary ranks").
func (st *Stream) OpenRanks(peers []int, mode string) error {
	if st.mode != 0 {
		return errors.New("vmpi: stream already open")
	}
	if len(peers) == 0 {
		return errors.New("vmpi: stream opened over an empty mapping")
	}
	switch mode {
	case "w", "r", "rw":
	default:
		return fmt.Errorf("vmpi: invalid stream mode %q (want \"r\", \"w\" or \"rw\")", mode)
	}
	if strings.Contains(mode, "w") {
		st.mode |= modeW
		st.peers = append([]int(nil), peers...)
		st.credits = make([]int, len(peers))
		for i := range st.credits {
			st.credits[i] = st.na
		}
		st.quarantined = make([]bool, len(peers))
		if st.packFormat > 1 {
			// Announce the non-default payload format before any data can
			// flow. A peer dead already at open is quarantined, matching
			// Write's failover semantics.
			var hello [4]byte
			binary.LittleEndian.PutUint32(hello[:], uint32(st.packFormat))
			r := st.sess.rank
			u := st.sess.Universe()
			for i, p := range st.peers {
				if err := r.SendChecked(u, p, st.tagHello(), int64(len(hello)), hello[:]); err != nil {
					var rf *mpi.RankFailedError
					if !errors.As(err, &rf) {
						return err
					}
					st.quarantine(i)
				}
			}
		}
	}
	if strings.Contains(mode, "r") {
		st.mode |= modeR
		st.writers = append([]int(nil), peers...)
		st.closed = make([]bool, len(peers))
		st.widx = make(map[int]int, len(peers))
		for i, w := range peers {
			st.widx[w] = i
		}
	}
	return nil
}

func (st *Stream) peerIndex(global int) int {
	for i, p := range st.peers {
		if p == global {
			return i
		}
	}
	return -1
}

// quarantine takes endpoint i out of service: its in-flight credits are
// written off (the shared output window recovers them) and it is skipped
// by pickWritable from now on. Quarantining the last endpoint degrades the
// stream.
func (st *Stream) quarantine(i int) {
	if st.quarantined[i] {
		return
	}
	st.quarantined[i] = true
	st.nQuarantined++
	st.stats.quarantines.Add(1)
	st.tel.OnQuarantine()
	if inflight := st.na - st.credits[i]; inflight > 0 {
		// These blocks were counted written but their credits will never
		// return: write them off as lost so the end-to-end drop ledger
		// (written = delivered + lost) stays closed.
		st.stats.blocksLost.Add(int64(inflight))
		st.tel.OnLostInFlight(int64(inflight))
	}
	st.outstanding -= st.na - st.credits[i]
	st.credits[i] = 0
	st.tel.CreditsInFlight(st.outstanding)
	if st.nQuarantined == len(st.peers) {
		st.degraded = true
	}
}

// quarantineStalled quarantines every endpoint holding unacknowledged
// blocks — invoked when the write deadline expires, at which point any
// endpoint that failed to return a credit within the deadline is suspect.
func (st *Stream) quarantineStalled() {
	for i := range st.peers {
		if !st.quarantined[i] && st.credits[i] < st.na {
			st.quarantine(i)
		}
	}
}

// drainControl consumes every pending control message on the writer half:
// returning credits, reader-close notifications (each quarantining its
// endpoint), and sweeps the peer list for crashed ranks. Control traffic
// from ranks outside the mapping is an error (a protocol violation, no
// longer a panic).
func (st *Stream) drainControl() error {
	r := st.sess.rank
	u := st.sess.Universe()
	for {
		ok, _ := r.Iprobe(u, mpi.AnySource, st.tagCredit())
		if !ok {
			break
		}
		status, _ := r.Recv(u, mpi.AnySource, st.tagCredit())
		i := st.peerIndex(status.Source)
		if i < 0 {
			return fmt.Errorf("vmpi: credit from unmapped rank %d", status.Source)
		}
		if st.quarantined[i] {
			continue // already written off when the endpoint was quarantined
		}
		st.credits[i]++
		st.outstanding--
		st.tel.CreditsInFlight(st.outstanding)
	}
	for {
		ok, status := r.Iprobe(u, mpi.AnySource, st.tagReaderClose())
		if !ok {
			break
		}
		r.Recv(u, status.Source, st.tagReaderClose())
		i := st.peerIndex(status.Source)
		if i < 0 {
			return fmt.Errorf("vmpi: reader close from unmapped rank %d", status.Source)
		}
		st.quarantine(i)
	}
	w := r.World()
	for i, p := range st.peers {
		if !st.quarantined[i] && w.RankFailed(p) {
			st.quarantine(i)
		}
	}
	return nil
}

// pickWritable selects the target endpoint for the next block according to
// the balancing policy, or -1 if no endpoint has credit.
func (st *Stream) pickWritable() int {
	n := len(st.peers)
	switch st.policy {
	case BalanceNone:
		// No balancing: stick to mapping order; endpoint i+1 is only used
		// when 0..i are exhausted.
		for i := 0; i < n; i++ {
			if st.credits[i] > 0 && !st.quarantined[i] {
				return i
			}
		}
	case BalanceRoundRobin:
		for k := 0; k < n; k++ {
			i := (st.rr + k) % n
			if st.credits[i] > 0 && !st.quarantined[i] {
				return i
			}
		}
	case BalanceRandom:
		avail := st.availBuf[:0]
		for i := 0; i < n; i++ {
			if st.credits[i] > 0 && !st.quarantined[i] {
				avail = append(avail, i)
			}
		}
		st.availBuf = avail
		if len(avail) > 0 {
			return avail[st.sess.rank.World().Sim().Rand().Intn(len(avail))]
		}
	}
	return -1
}

// Write sends one block of the given size (payload may be nil for size-only
// modeling, or a byte slice of length size). It is non-blocking until the
// shared output buffers are full or every mapped endpoint's receive window
// is exhausted, in which case it blocks until a credit returns — the
// paper's producer/consumer adaptation window.
//
// Under faults the window is bounded: a crashed peer or a reader-half
// close quarantines its endpoint immediately, a write deadline (see
// SetWriteDeadline) quarantines stalled endpoints, traffic fails over to
// the surviving endpoints, and with none left the block is counted in
// BlocksDropped and discarded — a degraded Write never blocks.
func (st *Stream) Write(payload []byte, size int64) error {
	if st.mode&modeW == 0 {
		return errors.New("vmpi: Write on a non-writer stream")
	}
	if size > st.blockSize {
		return fmt.Errorf("vmpi: block of %d bytes exceeds stream block size %d", size, st.blockSize)
	}
	if payload != nil && int64(len(payload)) != size {
		return fmt.Errorf("vmpi: payload length %d does not match size %d", len(payload), size)
	}
	r := st.sess.rank
	var deadline des.Time
	if st.writeDeadline > 0 {
		deadline = r.Now() + des.DurationToTime(st.writeDeadline)
	}
	for {
		st.applyWindow()
		// Sample the delivery generation before probing so an arrival that
		// races with the probes keeps the wait from parking.
		seq := r.ArrivalSeq()
		if err := st.drainControl(); err != nil {
			return err
		}
		if st.degraded {
			st.stats.blocksDropped.Add(1)
			st.tel.OnDrop()
			return nil
		}
		if st.outstanding < st.naOut {
			if i := st.pickWritable(); i >= 0 {
				if err := r.SendChecked(st.sess.Universe(), st.peers[i], st.tagData(), size, payload); err != nil {
					var rf *mpi.RankFailedError
					if errors.As(err, &rf) {
						st.quarantine(i) // peer died under us: fail over
						continue
					}
					return err
				}
				st.credits[i]--
				st.outstanding++
				if st.policy == BalanceRoundRobin {
					st.rr = (i + 1) % len(st.peers)
				}
				st.stats.blocksWritten.Add(1)
				st.stats.bytesWritten.Add(size)
				st.tel.OnWrite(size)
				st.tel.CreditsInFlight(st.outstanding)
				if st.nQuarantined > 0 {
					st.stats.failovers.Add(1)
					st.tel.OnFailover()
				}
				return nil
			}
		}
		st.stats.writeStalls.Add(1)
		st.tel.OnWriteStall()
		if deadline > 0 && r.Now() >= deadline {
			st.quarantineStalled()
			continue
		}
		r.WaitArrivalDeadline(seq, deadline, "vmpi stream write (await credit)")
	}
}

// readOrder returns the writer indices in the order the balancing policy
// wants them probed. The returned slice is the stream's scratch buffer,
// valid until the next call.
func (st *Stream) readOrder() []int {
	n := len(st.writers)
	if cap(st.orderBuf) < n {
		st.orderBuf = make([]int, n)
	}
	order := st.orderBuf[:n]
	switch st.policy {
	case BalanceRoundRobin:
		for k := 0; k < n; k++ {
			order[k] = (st.rrRead + k) % n
		}
	case BalanceRandom:
		for k := 0; k < n; k++ {
			order[k] = k
		}
		rng := st.sess.rank.World().Sim().Rand()
		rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
	default: // BalanceNone
		for k := 0; k < n; k++ {
			order[k] = k
		}
	}
	return order
}

// exactPolicyLimit bounds the writer count for which the read side applies
// its balancing policy by per-endpoint probing. Beyond it, blocks are
// served in arrival order (which credit throttling makes round-robin-like
// under uniform load) so that a single analyzer mapped to thousands of
// writers stays O(1) per read instead of O(writers).
const exactPolicyLimit = 16

// Read returns the next available block. With nonblock set it returns
// ErrAgain when nothing is ready (and tries the next endpoint per the
// policy first, avoiding circular waits in multi-endpoint mode); otherwise
// it blocks. A (nil, nil) return means every remote writer has closed the
// stream — the paper's 0 return.
func (st *Stream) Read(nonblock bool) (*Block, error) {
	if st.mode&modeR == 0 {
		return nil, errors.New("vmpi: Read on a non-reader stream")
	}
	r := st.sess.rank
	u := st.sess.Universe()
	for {
		// Sample the delivery generation before probing: anything arriving
		// during the probes keeps WaitArrival from parking.
		seq := r.ArrivalSeq()
		// Record format announcements before serving data: a hello was sent
		// at the writer's open, so it is always delivered no later than the
		// writer's first data block from the reader's perspective.
		for {
			ok, status := r.Iprobe(u, mpi.AnySource, st.tagHello())
			if !ok {
				break
			}
			_, payload := r.Recv(u, status.Source, st.tagHello())
			if _, known := st.widx[status.Source]; !known {
				return nil, fmt.Errorf("vmpi: format hello from unmapped rank %d", status.Source)
			}
			if len(payload) != 4 {
				return nil, fmt.Errorf("vmpi: malformed format hello from rank %d (%d bytes)", status.Source, len(payload))
			}
			v, accepts := int(binary.LittleEndian.Uint32(payload)), cmp.Or(st.maxPackFormat, DefaultMaxPackFormat)
			if v > accepts {
				return nil, fmt.Errorf("vmpi: writer rank %d streams pack format v%d, reader accepts up to v%d", status.Source, v, accepts)
			}
		}
		// Consume any close notifications first; the writer-side protocol
		// guarantees all of a writer's data was acknowledged before its
		// close, so this cannot skip data.
		for {
			ok, status := r.Iprobe(u, mpi.AnySource, st.tagClose())
			if !ok {
				break
			}
			r.Recv(u, status.Source, st.tagClose())
			i, known := st.widx[status.Source]
			if !known {
				return nil, fmt.Errorf("vmpi: stream close from unmapped rank %d", status.Source)
			}
			if !st.closed[i] {
				st.closed[i] = true
				st.nClosed++
			}
		}
		// A writer that crashed will never send its close: write it off so
		// the reader can still drain the survivors and terminate. Blocks it
		// sent before dying are served first (takeData runs below before
		// the all-closed check).
		w := r.World()
		for i, wrt := range st.writers {
			if !st.closed[i] && w.RankFailed(wrt) {
				st.closed[i] = true
				st.nClosed++
				st.stats.quarantines.Add(1)
				st.tel.OnQuarantine()
			}
		}
		if blk := st.takeData(); blk != nil {
			return blk, nil
		}
		if st.nClosed == len(st.writers) {
			return nil, nil // all remote streams closed
		}
		if nonblock {
			st.stats.eagains.Add(1)
			st.tel.OnEAGAIN()
			return nil, ErrAgain
		}
		r.WaitArrival(seq, "vmpi stream read")
	}
}

// takeData receives one pending data block according to the balancing
// policy, or returns nil if none is pending.
func (st *Stream) takeData() *Block {
	r := st.sess.rank
	u := st.sess.Universe()
	if len(st.writers) > exactPolicyLimit {
		ok, _ := r.Iprobe(u, mpi.AnySource, st.tagData())
		if !ok {
			return nil
		}
		status, payload := r.Recv(u, mpi.AnySource, st.tagData())
		return st.finishRead(status, payload)
	}
	for _, i := range st.readOrder() {
		if ok, _ := r.Iprobe(u, st.writers[i], st.tagData()); ok {
			status, payload := r.Recv(u, st.writers[i], st.tagData())
			if st.policy == BalanceRoundRobin {
				st.rrRead = (i + 1) % len(st.writers)
			}
			return st.finishRead(status, payload)
		}
	}
	return nil
}

// finishRead returns the receive buffer to the writer as a credit and
// accounts the block.
func (st *Stream) finishRead(status mpi.Status, payload []byte) *Block {
	st.sess.rank.Send(st.sess.Universe(), status.Source, st.tagCredit(), 0, nil)
	st.stats.blocksRead.Add(1)
	st.stats.bytesRead.Add(status.Size)
	st.tel.OnRead(status.Size)
	return &Block{From: status.Source, Size: status.Size, Payload: payload}
}

// Close terminates the endpoint. A writer half first waits for every
// in-flight block to be acknowledged (bounded by the write deadline, with
// the same quarantine semantics as Write) and then notifies each live
// mapped reader; a reader half notifies its writers (tagReaderClose) so a
// writer blocked on credits wakes instead of hanging, then closes locally
// (the paper's VMPI_Stream_close). On a duplex stream both halves close.
func (st *Stream) Close() error {
	if st.mode == 0 {
		return errors.New("vmpi: Close on an unopened stream")
	}
	r := st.sess.rank
	u := st.sess.Universe()
	if st.mode&modeW != 0 {
		var deadline des.Time
		if st.writeDeadline > 0 {
			deadline = r.Now() + des.DurationToTime(st.writeDeadline)
		}
		for st.outstanding > 0 {
			st.applyWindow()
			seq := r.ArrivalSeq()
			if err := st.drainControl(); err != nil {
				return err
			}
			if st.outstanding <= 0 || st.degraded {
				break
			}
			if deadline > 0 && r.Now() >= deadline {
				st.quarantineStalled()
				continue
			}
			r.WaitArrivalDeadline(seq, deadline, "vmpi stream close (drain acks)")
		}
		for i, p := range st.peers {
			if st.quarantined[i] {
				continue // crashed or already closed its reader half
			}
			if err := r.SendChecked(u, p, st.tagClose(), 0, nil); err != nil {
				var rf *mpi.RankFailedError
				if !errors.As(err, &rf) {
					return err
				}
				st.quarantine(i)
			}
		}
	}
	if st.mode&modeR != 0 {
		w := r.World()
		for i, wrt := range st.writers {
			if st.closed[i] || w.RankFailed(wrt) {
				continue // writer already finished (or died): nothing to wake
			}
			if err := r.SendChecked(u, wrt, st.tagReaderClose(), 0, nil); err != nil {
				var rf *mpi.RankFailedError
				if !errors.As(err, &rf) {
					return err
				}
			}
		}
	}
	st.mode = 0
	return nil
}
