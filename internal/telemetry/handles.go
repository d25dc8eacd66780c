package telemetry

import "fmt"

// Component bundles: one struct per instrumented layer, resolving its
// instrument names once at construction so hot paths touch only nil-safe
// pointers. Every constructor accepts a nil registry and returns nil; every
// method accepts a nil receiver and no-ops with zero allocations — that is
// the entire cost of disabled telemetry.

// StreamMetrics instruments one side of the vmpi stream layer.
type StreamMetrics struct {
	blocksW     *Counter
	bytesW      *Counter
	blocksR     *Counter
	bytesR      *Counter
	stalls      *Counter
	eagains     *Counter
	quarantines *Counter
	failovers   *Counter
	drops       *Counter
	lost        *Counter
	resizes     *Counter
	window      *Gauge
	credits     *Gauge
}

// NewStreamMetrics registers the stream instrument set on reg.
func NewStreamMetrics(reg *Registry) *StreamMetrics {
	if reg == nil {
		return nil
	}
	return &StreamMetrics{
		blocksW:     reg.Counter("stream.blocks_written"),
		bytesW:      reg.Counter("stream.bytes_written"),
		blocksR:     reg.Counter("stream.blocks_read"),
		bytesR:      reg.Counter("stream.bytes_read"),
		stalls:      reg.Counter("stream.write_stalls"),
		eagains:     reg.Counter("stream.eagain"),
		quarantines: reg.Counter("stream.quarantines"),
		failovers:   reg.Counter("stream.failovers"),
		drops:       reg.Counter("stream.blocks_dropped"),
		lost:        reg.Counter("stream.blocks_lost_inflight"),
		resizes:     reg.Counter("stream.window_resizes"),
		window:      reg.Gauge("stream.window"),
		credits:     reg.Gauge("stream.credits_in_flight"),
	}
}

// OnWrite records one block of size bytes written.
func (m *StreamMetrics) OnWrite(size int64) {
	if m == nil {
		return
	}
	m.blocksW.Add(1)
	m.bytesW.Add(size)
}

// OnRead records one block of size bytes read.
func (m *StreamMetrics) OnRead(size int64) {
	if m == nil {
		return
	}
	m.blocksR.Add(1)
	m.bytesR.Add(size)
}

// OnWriteStall records one back-pressure stall.
func (m *StreamMetrics) OnWriteStall() {
	if m == nil {
		return
	}
	m.stalls.Add(1)
}

// OnEAGAIN records one would-block nonblocking read.
func (m *StreamMetrics) OnEAGAIN() {
	if m == nil {
		return
	}
	m.eagains.Add(1)
}

// OnQuarantine records one endpoint quarantined.
func (m *StreamMetrics) OnQuarantine() {
	if m == nil {
		return
	}
	m.quarantines.Add(1)
}

// OnFailover records one write redirected to a failover endpoint.
func (m *StreamMetrics) OnFailover() {
	if m == nil {
		return
	}
	m.failovers.Add(1)
}

// OnDrop records one block dropped in degraded mode.
func (m *StreamMetrics) OnDrop() {
	if m == nil {
		return
	}
	m.drops.Add(1)
}

// OnLostInFlight records n written blocks whose credits were written off
// when their endpoint was quarantined.
func (m *StreamMetrics) OnLostInFlight(n int64) {
	if m == nil {
		return
	}
	m.lost.Add(n)
}

// OnWindowResize records one runtime credit-window retarget to na buffers.
func (m *StreamMetrics) OnWindowResize(na int) {
	if m == nil {
		return
	}
	m.resizes.Add(1)
	m.window.Set(int64(na))
}

// CreditsInFlight records the writer's outstanding (unacknowledged) block
// count; the gauge's high-water mark survives quiet sampling instants.
func (m *StreamMetrics) CreditsInFlight(n int) {
	if m == nil {
		return
	}
	m.credits.Set(int64(n))
}

// NetMetrics instruments the simnet NIC/network model.
type NetMetrics struct {
	messages *Counter
	bytes    *Counter
	backlog  *Gauge
}

// NewNetMetrics registers the network instrument set on reg.
func NewNetMetrics(reg *Registry) *NetMetrics {
	if reg == nil {
		return nil
	}
	return &NetMetrics{
		messages: reg.Counter("net.messages"),
		bytes:    reg.Counter("net.bytes"),
		backlog:  reg.Gauge("net.nic_backlog_ns"),
	}
}

// OnTransfer records one message of size bytes whose sending NIC queue was
// backlogNs of virtual time deep at injection.
func (m *NetMetrics) OnTransfer(size int64, backlogNs int64) {
	if m == nil {
		return
	}
	m.messages.Add(1)
	m.bytes.Add(size)
	m.backlog.Set(backlogNs)
}

// EventsPerPackBounds buckets the sink's events-per-pack distribution.
var EventsPerPackBounds = []int64{1, 16, 64, 256, 1024, 4096, 16384}

// SinkMetrics instruments the instrument-layer event sinks (recorders).
type SinkMetrics struct {
	events    *Counter
	flushes   *Counter
	packBytes *Counter
	fallbacks *Counter
	perPack   *Histogram
}

// NewSinkMetrics registers the sink instrument set on reg.
func NewSinkMetrics(reg *Registry) *SinkMetrics {
	if reg == nil {
		return nil
	}
	return &SinkMetrics{
		events:    reg.Counter("sink.events"),
		flushes:   reg.Counter("sink.pack_flushes"),
		packBytes: reg.Counter("sink.pack_bytes"),
		fallbacks: reg.Counter("sink.fallbacks"),
		perPack:   reg.Histogram("sink.events_per_pack", EventsPerPackBounds),
	}
}

// OnEvent records one event recorded into the sink.
func (m *SinkMetrics) OnEvent() {
	if m == nil {
		return
	}
	m.events.Add(1)
}

// OnFlush records one pack of events totaling bytes flushed to the stream.
func (m *SinkMetrics) OnFlush(events int, bytes int64) {
	if m == nil {
		return
	}
	m.flushes.Add(1)
	m.packBytes.Add(bytes)
	m.perPack.Observe(int64(events))
}

// OnFallback records one switch to the local-profile fallback.
func (m *SinkMetrics) OnFallback() {
	if m == nil {
		return
	}
	m.fallbacks.Add(1)
}

// CodecMetrics instruments the pack codec on both sides of the wire:
// encoded/decoded volume, wire vs logical bytes (their ratio is the
// compression factor), and wall-clock nanoseconds spent encoding and
// decoding (divide by the event counters for ns/event).
type CodecMetrics struct {
	encPacks     *Counter
	encEvents    *Counter
	wireBytes    *Counter
	logicalBytes *Counter
	encNs        *Counter
	decPacks     *Counter
	decEvents    *Counter
	decNs        *Counter
}

// NewCodecMetrics registers the codec instrument set on reg.
func NewCodecMetrics(reg *Registry) *CodecMetrics {
	if reg == nil {
		return nil
	}
	return &CodecMetrics{
		encPacks:     reg.Counter("codec.encoded_packs"),
		encEvents:    reg.Counter("codec.encoded_events"),
		wireBytes:    reg.Counter("codec.wire_bytes"),
		logicalBytes: reg.Counter("codec.logical_bytes"),
		encNs:        reg.Counter("codec.encode_ns"),
		decPacks:     reg.Counter("codec.decoded_packs"),
		decEvents:    reg.Counter("codec.decoded_events"),
		decNs:        reg.Counter("codec.decode_ns"),
	}
}

// OnEncode records one encoded pack: its event count, its bytes on the
// wire, the logical (fixed-record) bytes it stands for, and the
// wall-clock nanoseconds spent encoding it.
func (m *CodecMetrics) OnEncode(events int, wire, logical, ns int64) {
	if m == nil {
		return
	}
	m.encPacks.Add(1)
	m.encEvents.Add(int64(events))
	m.wireBytes.Add(wire)
	m.logicalBytes.Add(logical)
	m.encNs.Add(ns)
}

// OnDecode records one decoded pack: its event count and the wall-clock
// nanoseconds spent decoding it.
func (m *CodecMetrics) OnDecode(events int, ns int64) {
	if m == nil {
		return
	}
	m.decPacks.Add(1)
	m.decEvents.Add(int64(events))
	m.decNs.Add(ns)
}

// BoardMetrics instruments the blackboard: post/job/backoff rates, FIFO
// depth, and per-KS job latency histograms.
type BoardMetrics struct {
	reg      *Registry
	posted   *Counter
	jobs     *Counter
	backoffs *Counter
	dropped  *Counter
	depth    *Gauge
}

// NewBoardMetrics registers the blackboard instrument set on reg.
func NewBoardMetrics(reg *Registry) *BoardMetrics {
	if reg == nil {
		return nil
	}
	return &BoardMetrics{
		reg:      reg,
		posted:   reg.Counter("bb.posted"),
		jobs:     reg.Counter("bb.jobs"),
		backoffs: reg.Counter("bb.backoffs"),
		dropped:  reg.Counter("bb.dropped"),
		depth:    reg.Gauge("bb.queue_depth"),
	}
}

// OnPost records one entry posted.
func (m *BoardMetrics) OnPost() {
	if m == nil {
		return
	}
	m.posted.Add(1)
}

// OnJob records one KS job executed.
func (m *BoardMetrics) OnJob() {
	if m == nil {
		return
	}
	m.jobs.Add(1)
}

// OnBackoff records one idle-worker backoff.
func (m *BoardMetrics) OnBackoff() {
	if m == nil {
		return
	}
	m.backoffs.Add(1)
}

// OnDrop records one entry discarded undelivered: posted after close,
// orphaned by a re-registration race, or claimed by no listener.
func (m *BoardMetrics) OnDrop() {
	if m == nil {
		return
	}
	m.dropped.Add(1)
}

// QueueDepth records the current job-FIFO depth.
func (m *BoardMetrics) QueueDepth(n int64) {
	if m == nil {
		return
	}
	m.depth.Set(n)
}

// KSLatency returns (registering on first use) the wall-clock job latency
// histogram for the named knowledge source. Nil bundle → nil histogram.
func (m *BoardMetrics) KSLatency(name string) *Histogram {
	if m == nil {
		return nil
	}
	return m.reg.Histogram("bb.ks_latency."+name, LatencyBounds)
}

// TreeMetrics instruments the multi-level reduction tree: per-tier
// ingest volume, partial-profile merge counts and latency, forwarded
// bytes, and the aggregator's pending-partial queue depth. The names
// land in the registry like every other bundle, so the engine-health
// chapter picks the tree up automatically.
type TreeMetrics struct {
	ingestBlocks []*Counter
	ingestBytes  []*Counter
	partialsIn   *Counter
	partialsOut  *Counter
	fwdBytes     *Counter
	merges       *Counter
	mergeNs      *Histogram
	pending      *Gauge
	reparented   *Counter
}

// NewTreeMetrics registers the reduction-tree instrument set on reg for
// a tree of the given tier count (per-tier ingest instruments are
// indexed by the tier a block arrives *into*).
func NewTreeMetrics(reg *Registry, tiers int) *TreeMetrics {
	if reg == nil {
		return nil
	}
	m := &TreeMetrics{
		partialsIn:  reg.Counter("tbon.partials_in"),
		partialsOut: reg.Counter("tbon.partials_out"),
		fwdBytes:    reg.Counter("tbon.forward_bytes"),
		merges:      reg.Counter("tbon.merges"),
		mergeNs:     reg.Histogram("tbon.merge_ns", LatencyBounds),
		pending:     reg.Gauge("tbon.pending_partials"),
		reparented:  reg.Counter("tbon.reparented_blocks"),
	}
	for t := 0; t < tiers; t++ {
		suffix := fmt.Sprintf(".t%d", t)
		m.ingestBlocks = append(m.ingestBlocks, reg.Counter("tbon.ingest_blocks"+suffix))
		m.ingestBytes = append(m.ingestBytes, reg.Counter("tbon.ingest_bytes"+suffix))
	}
	return m
}

// OnIngest records one encoded partial of size bytes arriving into tier.
func (m *TreeMetrics) OnIngest(tier int, size int64) {
	if m == nil || tier < 0 || tier >= len(m.ingestBytes) {
		return
	}
	m.ingestBlocks[tier].Add(1)
	m.ingestBytes[tier].Add(size)
	m.partialsIn.Add(1)
}

// OnMerge records one partial-profile merge taking ns wall-clock
// nanoseconds.
func (m *TreeMetrics) OnMerge(ns int64) {
	if m == nil {
		return
	}
	m.merges.Add(1)
	m.mergeNs.Observe(ns)
}

// OnForward records one merged partial of size bytes forwarded upward.
func (m *TreeMetrics) OnForward(size int64) {
	if m == nil {
		return
	}
	m.partialsOut.Add(1)
	m.fwdBytes.Add(size)
}

// OnReparent records one block that arrived over a failover endpoint
// (i.e. from a child whose primary parent died).
func (m *TreeMetrics) OnReparent() {
	if m == nil {
		return
	}
	m.reparented.Add(1)
}

// PendingPartials records an aggregator's per-app accumulator count.
func (m *TreeMetrics) PendingPartials(n int) {
	if m == nil {
		return
	}
	m.pending.Set(int64(n))
}

// ControllerMetrics instruments the adaptive overload controller: its
// escalation level, decision counts, the freshness of the engine-health
// snapshots it steers by, and its estimate of the transport backlog. The
// names land in the registry like every other bundle, so the controller
// shows up in the engine-health chapter it feeds from.
type ControllerMetrics struct {
	level       *Gauge
	decisions   *Counter
	escalations *Counter
	relaxations *Counter
	lagNs       *Gauge
	backlog     *Gauge
}

// NewControllerMetrics registers the controller instrument set on reg.
func NewControllerMetrics(reg *Registry) *ControllerMetrics {
	if reg == nil {
		return nil
	}
	return &ControllerMetrics{
		level:       reg.Gauge("adapt.level"),
		decisions:   reg.Counter("adapt.decisions"),
		escalations: reg.Counter("adapt.escalations"),
		relaxations: reg.Counter("adapt.relaxations"),
		lagNs:       reg.Gauge("adapt.snapshot_lag_ns"),
		backlog:     reg.Gauge("adapt.backlog_bytes"),
	}
}

// OnDecision records one control decision and the resulting level.
func (m *ControllerMetrics) OnDecision(level int) {
	if m == nil {
		return
	}
	m.decisions.Add(1)
	m.level.Set(int64(level))
}

// OnEscalate records one escalation (level increase).
func (m *ControllerMetrics) OnEscalate() {
	if m == nil {
		return
	}
	m.escalations.Add(1)
}

// OnRelax records one de-escalation (level decrease).
func (m *ControllerMetrics) OnRelax() {
	if m == nil {
		return
	}
	m.relaxations.Add(1)
}

// SnapshotLag records the wall-clock age of the engine-health snapshot the
// controller just acted on — the control loop's sensing latency.
func (m *ControllerMetrics) SnapshotLag(ns int64) {
	if m == nil {
		return
	}
	m.lagNs.Set(ns)
}

// Backlog records the controller's estimate of unconsumed stream bytes
// (written minus read), its proxy for transport pressure.
func (m *ControllerMetrics) Backlog(bytes int64) {
	if m == nil {
		return
	}
	m.backlog.Set(bytes)
}

// ReplicaMetrics instruments the lock-free parallel analysis path:
// per-worker module replicas folding without locks, merged into the
// canonical modules on epoch boundaries. All methods are nil-safe, so a
// serial engine pays nothing.
type ReplicaMetrics struct {
	replicas *Gauge
	epochs   *Counter
	mergeNs  *Histogram
}

// NewReplicaMetrics registers the replica instrument set on reg.
func NewReplicaMetrics(reg *Registry) *ReplicaMetrics {
	if reg == nil {
		return nil
	}
	return &ReplicaMetrics{
		replicas: reg.Gauge("replica.count"),
		epochs:   reg.Counter("replica.epoch_merges"),
		mergeNs:  reg.Histogram("replica.merge_ns", LatencyBounds),
	}
}

// Replicas records how many live module replicas exist.
func (m *ReplicaMetrics) Replicas(n int) {
	if m == nil {
		return
	}
	m.replicas.Set(int64(n))
}

// OnEpochMerge records one replica→canonical epoch merge taking ns
// wall-clock nanoseconds.
func (m *ReplicaMetrics) OnEpochMerge(ns int64) {
	if m == nil {
		return
	}
	m.epochs.Add(1)
	m.mergeNs.Observe(ns)
}

// WindowMetrics instruments the time-resolved windowed analysis layer:
// the event→report-update lag (virtual event timestamp vs analyzer fold
// clock) and the lateness accounting behind per-window completeness
// bounds. Fed by analysis.WindowTracker.Publish, not per event, so the
// fold hot path stays free of instrument traffic. All methods are
// nil-safe.
type WindowMetrics struct {
	lagNs    *Gauge
	maxLagNs *Gauge
	events   *Counter
	late     *Counter
	open     *Gauge
}

// NewWindowMetrics registers the windowed-analysis instrument set on reg.
func NewWindowMetrics(reg *Registry) *WindowMetrics {
	if reg == nil {
		return nil
	}
	return &WindowMetrics{
		lagNs:    reg.Gauge("window.lag_ns"),
		maxLagNs: reg.Gauge("window.max_lag_ns"),
		events:   reg.Counter("window.events"),
		late:     reg.Counter("window.late_events"),
		open:     reg.Gauge("window.open"),
	}
}

// OnPublish records one tracker publication: the current and high-water
// event→fold lag, the event/late-event counts folded since the last
// publication (deltas — the counters accumulate), and the number of
// windows observed so far.
func (m *WindowMetrics) OnPublish(lagNs, maxLagNs, events, late int64, open int) {
	if m == nil {
		return
	}
	m.lagNs.Set(lagNs)
	m.maxLagNs.Set(maxLagNs)
	m.events.Add(events)
	m.late.Add(late)
	m.open.Set(int64(open))
}
