package instrument

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/simfs"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vmpi"
)

// costMeter charges a fixed CPU cost per event against a rank's virtual
// time. Charges are batched (default 10 µs granularity) so a million-event
// run does not pay a million scheduler round-trips; the accumulated virtual
// time is identical.
type costMeter struct {
	rank    *mpi.Rank
	per     time.Duration
	pending time.Duration
	grain   time.Duration
}

func newCostMeter(r *mpi.Rank, per time.Duration) costMeter {
	return costMeter{rank: r, per: per, grain: 10 * time.Microsecond}
}

func (c *costMeter) charge() {
	if c.per <= 0 {
		return
	}
	c.pending += c.per
	if c.pending >= c.grain {
		c.rank.Compute(c.pending)
		c.pending = 0
	}
}

func (c *costMeter) settle() {
	if c.pending > 0 {
		c.rank.Compute(c.pending)
		c.pending = 0
	}
}

// CallStats aggregates one call kind in a local profile.
type CallStats struct {
	// Hits counts calls.
	Hits int64
	// TimeNs accumulates call durations in nanoseconds.
	TimeNs int64
	// Bytes accumulates payload sizes.
	Bytes int64
}

// CallProfile is a per-rank reduction of events by call kind (what a purely
// online tool like mpiP keeps).
type CallProfile map[trace.Kind]*CallStats

// Add folds one event into the profile.
func (p CallProfile) Add(ev *trace.Event) {
	st := p[ev.Kind]
	if st == nil {
		st = &CallStats{}
		p[ev.Kind] = st
	}
	st.Hits++
	st.TimeNs += ev.Duration()
	st.Bytes += ev.Size
}

// Kinds returns the profiled kinds sorted by name (stable report order).
func (p CallProfile) Kinds() []trace.Kind {
	out := make([]trace.Kind, 0, len(p))
	for k := range p {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// --- Online recorder (the paper's tool) ---

// OnlineConfig parameterizes an OnlineRecorder.
type OnlineConfig struct {
	// AppID tags packs with the producing application (blackboard level).
	AppID uint32
	// RecordSize is the per-event record size (context padding included).
	RecordSize int
	// PackBytes is the pack/stream block size (the paper uses ≈1 MB).
	PackBytes int
	// PerEventCost is the CPU cost of intercepting and encoding one event.
	PerEventCost time.Duration
	// SizeOnly streams block sizes without materializing payload bytes
	// (for large overhead sweeps where the analyzer models, rather than
	// decodes, its input). With PackVersion >= 2 the recorder still
	// encodes — the wire size of a compressed pack is data-dependent — but
	// the encoded buffer is recycled locally instead of being sent.
	SizeOnly bool
	// PackVersion selects the pack wire format (0 or trace.PackV1 for the
	// fixed-record format, trace.PackV2 for delta+varint columns,
	// trace.PackV3 for the persistent per-stream dictionary). Writers
	// using v2+ announce it on the stream at open (vmpi format hello).
	PackVersion int
	// AnnouncePackVersion announces this format on the stream at open even
	// when PackVersion starts lower — the ceiling a runtime format switch
	// (SetPackVersionFunc) may reach. The announcement is a negotiation
	// ceiling, not a promise: every pack self-describes, so a writer that
	// announced v2 may keep streaming v1 packs. 0 announces PackVersion.
	AnnouncePackVersion int
	// WriteDeadline bounds how long a pack write may wait for stream
	// credits before the stalled endpoint is quarantined (0 = wait
	// forever, the seed behavior).
	WriteDeadline time.Duration
	// FailoverEndpoints adds up to this many extra analyzer ranks beyond
	// the mapped one to the write stream, giving the recorder somewhere to
	// fail over when its primary analyzer dies or stalls.
	FailoverEndpoints int
}

// AdmissionGate is the recorder path's load-shedding hook (implemented by
// adapt.Gate): Admit decides per event class whether an event enters the
// pack stream, and AuditPack encodes the resulting shed ledger so the
// recorder can ship its loss accounting down the stream it applies to.
// Both must be safe to call while a controller retunes the gate from
// another goroutine.
type AdmissionGate interface {
	Admit(k trace.Kind) bool
	AuditPack(appID uint32, srcRank int32) []byte
}

// OnlineRecorder packs events and writes them to a VMPI stream. Its
// overhead is its per-event cost plus whatever back-pressure the stream
// applies when the analyzer or the network cannot keep up. When the stream
// degrades (every analyzer endpoint crashed or stalled past the write
// deadline), the recorder falls back: it stops streaming, and the
// application keeps running and loses only the streamed detail.
type OnlineRecorder struct {
	sess     *vmpi.Session
	stream   *vmpi.Stream
	builder  trace.Builder // nil for v1 size-only: see Record
	version  int
	appID    uint32
	cost     costMeter
	sizeOnly bool
	produced int64
	logical  int64
	events   int64
	closed   bool

	// Adaptive hooks (nil when the controller is disabled): the admission
	// gate sheds events by class before they cost pack space, and packFn is
	// consulted at each flush boundary for the wire format the next pack
	// should use (v1↔v2 switching is safe there because every pack
	// self-describes via its magic).
	gate   AdmissionGate
	packFn func() int

	// recordSize is the declared record size, what LogicalBytes charges;
	// packBytes bounds a pack's modelled size; counted is the open pack's
	// event count when there is no builder.
	recordSize int
	packBytes  int
	counted    int

	// Telemetry (nil when disabled — the nil checks are the whole cost).
	tel     *telemetry.SinkMetrics
	codec   *telemetry.CodecMetrics
	sampler *telemetry.Sampler
	encNs   int64 // wall-clock encode time accumulated for the open pack

	// fellBack is set once the stream died: later events are not sent.
	fellBack bool
}

// NewOnlineRecorder wraps an already-open writer stream. It refuses a
// cfg.PackVersion that names no pack format.
func NewOnlineRecorder(sess *vmpi.Session, stream *vmpi.Stream, cfg OnlineConfig) (*OnlineRecorder, error) {
	version := cfg.PackVersion
	if version == 0 {
		version = trace.PackV1
	}
	o := &OnlineRecorder{
		sess:       sess,
		stream:     stream,
		version:    version,
		appID:      cfg.AppID,
		cost:       newCostMeter(sess.Rank(), cfg.PerEventCost),
		sizeOnly:   cfg.SizeOnly,
		recordSize: cfg.RecordSize,
		packBytes:  cfg.PackBytes,
	}
	if o.recordSize < trace.MinRecordSize {
		o.recordSize = trace.MinRecordSize
	}
	if !cfg.SizeOnly || version != trace.PackV1 {
		b, err := trace.NewBuilder(version, cfg.AppID, int32(sess.LocalRank()), cfg.RecordSize, cfg.PackBytes)
		if err != nil {
			return nil, fmt.Errorf("instrument: %w", err)
		}
		o.builder = b
	}
	return o, nil
}

// AttachOnline maps the session's partition to the named analyzer
// partition (round-robin), opens a write stream over the map and returns a
// recorder on it — the whole coupling sequence of the paper's Figure 11.
// With cfg.FailoverEndpoints > 0 the stream is opened over the mapped
// analyzer plus up to that many additional analyzer ranks (wrapping around
// the partition), ordered primary-first so failover targets only absorb
// traffic when the primary is out of credits or quarantined. The analyzer
// side must then open its read streams over every potential writer, not
// just its mapped ones.
func AttachOnline(sess *vmpi.Session, analyzer string, cfg OnlineConfig) (*OnlineRecorder, error) {
	// Before the map and the stream: a rank that leaves with either open
	// strands its analyzer.
	if v := cfg.PackVersion; v < 0 || v > trace.PackV3 {
		return nil, fmt.Errorf("instrument: unknown pack version %d", v)
	}
	part := sess.Layout().DescByName(analyzer)
	if part == nil {
		return nil, fmt.Errorf("instrument: could not locate %q partition", analyzer)
	}
	var m vmpi.Map
	if err := sess.MapPartitions(part.ID, vmpi.MapRoundRobin, &m); err != nil {
		return nil, err
	}
	// Primary-first ordering (BalanceNone) when a failover set is present:
	// the mapped endpoint is drained before traffic spills to backups.
	policy := vmpi.BalanceRoundRobin
	if cfg.FailoverEndpoints > 0 {
		policy = vmpi.BalanceNone
	}
	st := vmpi.NewStream(sess, int64(cfg.PackBytes), policy)
	if cfg.WriteDeadline > 0 {
		st.SetWriteDeadline(cfg.WriteDeadline)
	}
	if announce := max(cfg.PackVersion, cfg.AnnouncePackVersion); announce > trace.PackV1 {
		st.SetPackFormat(announce)
	}
	if cfg.FailoverEndpoints > 0 {
		peers := failoverPeers(m.Targets(), part.Globals, cfg.FailoverEndpoints)
		if err := st.OpenRanks(peers, "w"); err != nil {
			return nil, err
		}
	} else if err := st.OpenMap(&m, "w"); err != nil {
		return nil, err
	}
	return NewOnlineRecorder(sess, st, cfg)
}

// failoverPeers returns the mapped analyzer ranks followed by up to extra
// additional ranks from the analyzer partition, wrapping around from the
// last primary so different writers prefer different backups.
func failoverPeers(primaries, analyzers []int, extra int) []int {
	peers := append([]int(nil), primaries...)
	used := make(map[int]bool, len(primaries))
	start := 0
	for _, g := range primaries {
		used[g] = true
		for j, a := range analyzers {
			if a == g {
				start = j
			}
		}
	}
	for off := 1; off <= len(analyzers) && extra > 0; off++ {
		a := analyzers[(start+off)%len(analyzers)]
		if used[a] {
			continue
		}
		used[a] = true
		peers = append(peers, a)
		extra--
	}
	return peers
}

// BytesProduced implements Recorder.
func (o *OnlineRecorder) BytesProduced() int64 { return o.produced }

// Events returns the number of events recorded.
func (o *OnlineRecorder) Events() int64 { return o.events }

// FellBack reports whether the recorder abandoned the stream.
func (o *OnlineRecorder) FellBack() bool { return o.fellBack }

// StreamStats exposes the underlying stream's health counters.
func (o *OnlineRecorder) StreamStats() vmpi.StreamStats { return o.stream.Stats() }

// Stream exposes the underlying write stream (telemetry wiring).
func (o *OnlineRecorder) Stream() *vmpi.Stream { return o.stream }

// SetTelemetry attaches a sink telemetry bundle (nil allowed and free).
func (o *OnlineRecorder) SetTelemetry(m *telemetry.SinkMetrics) { o.tel = m }

// SetCodecTelemetry attaches a codec telemetry bundle (nil allowed and
// free): pack counts, wire vs logical bytes, and wall-clock encode time.
func (o *OnlineRecorder) SetCodecTelemetry(m *telemetry.CodecMetrics) { o.codec = m }

// LogicalBytes returns the v1-equivalent volume of everything produced:
// what the recorded packs would have occupied as fixed records. With the
// v1 format it equals BytesProduced; the gap is the v2 codec's saving.
func (o *OnlineRecorder) LogicalBytes() int64 { return o.logical }

// SetSampler attaches a telemetry sampler driven from this recorder's
// event flow: each Record gives the sampler a chance to emit a snapshot at
// the rank's current virtual time. Nil detaches. Finalize flushes a last
// snapshot, so even runs shorter than one sampling period report
// engine-health data.
func (o *OnlineRecorder) SetSampler(s *telemetry.Sampler) { o.sampler = s }

// SetGate installs an admission gate in front of the pack stream: events
// whose class the gate sheds are counted there and recorded nowhere else.
// Nil removes the gate.
func (o *OnlineRecorder) SetGate(g AdmissionGate) { o.gate = g }

// SetPackVersionFunc installs the pack-format selector consulted at each
// flush boundary (e.g. the adaptive controller's PackVersion). The stream
// must have announced the highest format f may return (AttachOnline's
// AnnouncePackVersion). Nil pins the format chosen at construction.
func (o *OnlineRecorder) SetPackVersionFunc(f func() int) { o.packFn = f }

// enterFallback abandons the stream.
func (o *OnlineRecorder) enterFallback() {
	if o.fellBack {
		return
	}
	o.fellBack = true
	o.counted = 0
	o.tel.OnFallback()
	if o.builder != nil {
		o.builder.Take() // discard the partial pack; its events are lost
	}
}

// Record implements Recorder.
func (o *OnlineRecorder) Record(ev *trace.Event) {
	o.cost.charge()
	o.events++
	o.tel.OnEvent()
	if o.sampler != nil {
		// Sampling rides the recorder's event flow: overdue snapshots are
		// emitted here, stamped with the rank's current virtual time. A
		// failed snapshot write never fails the profiled run.
		_ = o.sampler.Poll(o.sess.Rank().Now())
	}
	if o.gate != nil && ev != nil && !o.gate.Admit(ev.Kind) {
		return // shed: counted by class in the gate's ledger
	}
	if o.fellBack {
		return
	}
	if o.builder == nil {
		// v1 size-only: nothing reads the records and the modelled size is a
		// closed form of the count. Encoded, every rank of a sweep would hold
		// its open pack's records (Fig. 16: 4 096 ranks × ≈ 190 KB).
		if o.counted++; trace.PackHeaderSize+(o.counted+1)*o.recordSize > o.packBytes {
			o.flush()
		}
		return
	}
	if o.codec != nil {
		t0 := time.Now()
		full := o.builder.Add(ev)
		o.encNs += time.Since(t0).Nanoseconds()
		if full {
			o.flush()
		}
		return
	}
	if o.builder.Add(ev) {
		o.flush()
	}
}

func (o *OnlineRecorder) flush() {
	if o.fellBack {
		return
	}
	var t0 time.Time
	if o.codec != nil {
		t0 = time.Now()
	}
	events, payload := o.counted, []byte(nil)
	if o.builder != nil {
		events, payload = o.builder.Count(), o.builder.Take()
	}
	if o.codec != nil {
		o.encNs += time.Since(t0).Nanoseconds()
	}
	if events == 0 {
		return
	}
	o.counted = 0
	packLogical := int64(trace.PackHeaderSize + events*o.recordSize)
	size := packLogical
	if payload != nil {
		size = trace.BlockSize(payload)
	}
	o.logical += packLogical
	o.tel.OnFlush(events, size)
	o.codec.OnEncode(events, size, packLogical, o.encNs)
	o.encNs = 0
	o.produced += size
	o.cost.settle()
	sent := payload
	if o.sizeOnly && payload != nil {
		// The encoded pack never leaves the process: only its size crosses
		// the stream, and the buffer is recycled for the next pack directly.
		sent = nil
		o.builder.Reset(payload)
	}
	// A protocol error (e.g. unmapped control traffic) kills the stream for
	// good, and with every endpoint quarantined further packs would only be
	// counted as drops: reduce locally instead of taking the application
	// down.
	if err := o.stream.Write(sent, size); err != nil || o.stream.Degraded() {
		o.enterFallback()
		return
	}
	o.switchFormat()
}

// switchFormat swaps the pack builder when the format selector wants a
// different wire format for the next pack. Only meaningful between packs:
// flush calls it after taking the previous pack and before resetting.
func (o *OnlineRecorder) switchFormat() {
	if o.packFn == nil || o.builder == nil {
		return
	}
	v := o.packFn()
	if v == o.version || v < trace.PackV1 || v > trace.PackV3 {
		return
	}
	b, err := trace.NewBuilder(v, o.appID, int32(o.sess.LocalRank()), o.recordSize, o.packBytes)
	if err != nil {
		return
	}
	o.version = v
	o.builder = b
}

// Finalize implements Recorder: it flushes the last pack and closes the
// stream (waiting for the analyzer to acknowledge all in-flight blocks).
// A recorder that fell back closes best-effort: close errors are not fatal
// to the application.
func (o *OnlineRecorder) Finalize() {
	if o.closed {
		return
	}
	o.closed = true
	o.flush()
	if o.gate != nil && !o.fellBack {
		// Ship the shed ledger after the last data pack: an audit pack per
		// finalizing rank, folded into the partial profiles downstream so
		// the completeness bound survives aggregation. Nothing shed → no
		// pack, keeping gate-but-calm runs wire-identical.
		if buf := o.gate.AuditPack(o.appID, int32(o.sess.LocalRank())); buf != nil {
			// A stream that died this late loses only the ledger; the run's
			// own loss counters still show it.
			_ = o.stream.Write(buf, int64(len(buf)))
		}
	}
	o.cost.settle()
	// A last snapshot at shutdown: short runs (under one sampling period)
	// would otherwise report an empty engine-health chapter.
	_ = o.sampler.Flush(o.sess.Rank().Now())
	if err := o.stream.Close(); err != nil {
		o.enterFallback()
	}
}

// --- SIONlib-style shared trace files ---

// SIONSet maps ranks onto a reduced number of physical trace files, like
// SIONlib's task-local files: ranksPerFile ranks share one physical file,
// cutting metadata pressure while keeping one logical stream per rank. The
// set is shared per job; the first rank to touch a physical file pays its
// creation (in its own virtual time).
type SIONSet struct {
	fs           *simfs.FS
	ranksPerFile int
	fds          map[int]int
}

// NewSIONSet creates a file set on fs. ranksPerFile < 1 means one file per
// rank (the classic one-file-per-process layout the paper's Figure 1
// criticizes).
func NewSIONSet(fs *simfs.FS, ranksPerFile int) *SIONSet {
	if ranksPerFile < 1 {
		ranksPerFile = 1
	}
	return &SIONSet{fs: fs, ranksPerFile: ranksPerFile, fds: make(map[int]int)}
}

// FD returns the physical file descriptor for a rank, creating the file on
// first touch; done is when the (possible) creation completes.
func (s *SIONSet) FD(rank int, now des.Time) (fd int, done des.Time) {
	slot := rank / s.ranksPerFile
	if fd, ok := s.fds[slot]; ok {
		return fd, now
	}
	fd, done = s.fs.Create(now)
	s.fds[slot] = fd
	return fd, done
}

// --- Trace recorder (Score-P trace + SIONlib baseline) ---

// TraceConfig parameterizes a TraceRecorder.
type TraceConfig struct {
	// BufferBytes is the in-memory event buffer flushed to the filesystem
	// when full (Score-P's default chunk is a few MB).
	BufferBytes int64
}

// A trace recorder writes Score-P's 80-byte OTF2 records and spends 200 ns
// measuring and encoding each event.
const (
	traceRecordSize   = 80
	tracePerEventCost = 200 * time.Nanosecond
)

// DefaultTraceConfig mirrors Score-P's default 4 MB buffers.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{BufferBytes: 4 << 20}
}

// TraceRecorder buffers events and writes them through the shared
// filesystem model; its overhead is per-event cost plus filesystem stalls,
// which grow with scale as the prorated bandwidth saturates — the paper's
// explanation for Figure 16.
type TraceRecorder struct {
	rank     *mpi.Rank
	fs       *simfs.FS
	set      *SIONSet
	cfg      TraceConfig
	cost     costMeter
	fd       int
	haveFD   bool
	buffered int64
	produced int64
}

// NewTraceRecorder creates a trace recorder writing through the given
// SIONlib-style file set.
func NewTraceRecorder(r *mpi.Rank, fs *simfs.FS, set *SIONSet, cfg TraceConfig) *TraceRecorder {
	return &TraceRecorder{rank: r, fs: fs, set: set, cfg: cfg, cost: newCostMeter(r, tracePerEventCost), fd: -1}
}

// BytesProduced implements Recorder.
func (t *TraceRecorder) BytesProduced() int64 { return t.produced }

// Record implements Recorder.
func (t *TraceRecorder) Record(ev *trace.Event) {
	t.cost.charge()
	t.buffered += traceRecordSize
	if t.buffered >= t.cfg.BufferBytes {
		t.flush()
	}
}

func (t *TraceRecorder) ensureFD() {
	if t.haveFD {
		return
	}
	fd, done := t.set.FD(t.rank.Global(), t.rank.Now())
	t.fd = fd
	t.haveFD = true
	if wait := done - t.rank.Now(); wait > 0 {
		t.rank.Compute(wait.Duration())
	}
}

func (t *TraceRecorder) flush() {
	if t.buffered == 0 {
		return
	}
	t.cost.settle()
	t.ensureFD()
	done, err := t.fs.Write(t.rank.Now(), t.fd, t.buffered)
	if err != nil {
		panic(fmt.Sprintf("instrument: trace flush failed: %v", err))
	}
	t.produced += t.buffered
	t.buffered = 0
	if wait := done - t.rank.Now(); wait > 0 {
		t.rank.Compute(wait.Duration())
	}
}

// Finalize implements Recorder.
func (t *TraceRecorder) Finalize() {
	t.flush()
	t.cost.settle()
}

// --- Profile recorder (Score-P profile / mpiP baseline) ---

// ProfileConfig parameterizes a ProfileRecorder.
type ProfileConfig struct {
	// PerEventCost is the cost of updating the in-memory profile.
	PerEventCost time.Duration
	// DumpBytes is the size of the final per-rank profile dump.
	DumpBytes int64
}

// DefaultProfileConfig mirrors a lightweight runtime profile: 80 ns per
// event, 64 KB dump.
func DefaultProfileConfig() ProfileConfig {
	return ProfileConfig{PerEventCost: 80 * time.Nanosecond, DumpBytes: 64 << 10}
}

// ProfileRecorder reduces events locally (hits/time/bytes per call kind)
// and writes one small dump at the end.
type ProfileRecorder struct {
	rank     *mpi.Rank
	fs       *simfs.FS
	cfg      ProfileConfig
	cost     costMeter
	name     string
	profile  CallProfile
	produced int64
}

// NewProfileRecorder creates a profiling recorder. fs may be nil (no final
// dump cost).
func NewProfileRecorder(r *mpi.Rank, fs *simfs.FS, name string, cfg ProfileConfig) *ProfileRecorder {
	return &ProfileRecorder{
		rank: r, fs: fs, cfg: cfg, name: name,
		cost:    newCostMeter(r, cfg.PerEventCost),
		profile: make(CallProfile),
	}
}

// BytesProduced implements Recorder.
func (p *ProfileRecorder) BytesProduced() int64 { return p.produced }

// Profile exposes the local reduction (for reports and tests).
func (p *ProfileRecorder) Profile() CallProfile { return p.profile }

// Record implements Recorder.
func (p *ProfileRecorder) Record(ev *trace.Event) {
	p.cost.charge()
	p.profile.Add(ev)
}

// Finalize implements Recorder. Like Score-P and Scalasca, per-rank
// profiles are reduced toward the root at finalize and a single report is
// written: only program rank 0 touches the filesystem.
func (p *ProfileRecorder) Finalize() {
	p.cost.settle()
	if p.rank.ProgramRank() != 0 {
		return
	}
	p.produced += p.cfg.DumpBytes
	if p.fs != nil {
		fd, done := p.fs.Create(p.rank.Now())
		if wait := done - p.rank.Now(); wait > 0 {
			p.rank.Compute(wait.Duration())
		}
		if done, err := p.fs.Write(p.rank.Now(), fd, p.cfg.DumpBytes); err == nil {
			if wait := done - p.rank.Now(); wait > 0 {
				p.rank.Compute(wait.Duration())
			}
		}
		p.fs.Close(p.rank.Now(), fd)
	}
}

// NullRecorder counts events and nothing else (wrapper-overhead testing).
type NullRecorder struct {
	// EventsSeen counts Record calls.
	EventsSeen int64
}

// Record implements Recorder.
func (n *NullRecorder) Record(*trace.Event) { n.EventsSeen++ }

// Finalize implements Recorder.
func (n *NullRecorder) Finalize() {}

// BytesProduced implements Recorder.
func (n *NullRecorder) BytesProduced() int64 { return 0 }
