package bench

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/blackboard"
	"repro/internal/exp"
	"repro/internal/nas"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The stage battery times each layer in isolation, from outside, by
// calling its public functions in a loop over a slice of the ingest
// corpus. Every stage is bracketed by reference-kernel runs and
// normalised like a pass, and runs under a span named "stage:<name>". The
// layer's calls and the reference runs are that span's children, so its
// self time is the loop's own overhead.

const (
	// stageWriters × stageEvents is the slice of the ingest corpus the
	// isolated codec and fold loops work on.
	stageWriters = 16
	stageEvents  = 16384
	// stageReps is how many times a stage loop runs; the stage's value is
	// the median.
	stageReps = 3
)

// battery carries the state the stages share.
type battery struct {
	tr   *Tracer
	seed int64
	out  map[string]Value
	log  io.Writer
	// events[w] is writer w's pre-generated event stream; packs[v] the
	// same events encoded in wire format v, per writer.
	events [][]trace.Event
	packs  map[int][][][]byte
	// err is the first error a stage loop met; a stage that fails makes
	// the traced run fail, it does not take the process down.
	errMu sync.Mutex
	err   error
}

// check records a stage's error and reports whether there was one.
func (b *battery) check(err error) bool {
	if err == nil {
		return false
	}
	b.errMu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.errMu.Unlock()
	return true
}

func (b *battery) set(name string, v float64) {
	unit, ok := unitOf(PerLayer, name)
	if !ok {
		panic("bench: stage reports unknown metric " + name)
	}
	b.out[name] = Value{v, unit}
}

// timed runs fn stageReps times under a span, each run bracketed by the
// reference kernel, and returns the median normalised seconds per run. fn
// hangs its own spans under the stage span it is handed, so the stage's
// self time is what the loop spent outside the layer's calls.
func (b *battery) timed(name string, fn func(stage SpanRef)) float64 {
	sp := b.tr.Begin(Root, "stage:"+name, -1)
	defer sp.End()
	var norm []float64
	ref := b.tr.refKernel(sp, -1)
	for i := 0; i < stageReps; i++ {
		t0 := time.Now()
		fn(sp)
		raw := time.Since(t0)
		after := b.tr.refKernel(sp, -1)
		norm = append(norm, Normalise(raw, ref.Wall, after.Wall))
		ref = after
	}
	return Median(norm)
}

// each runs fn reps times between two reference runs, timing every call
// on its own under a span named after the call, and returns the median
// normalised seconds per call. For operations of micro- to milliseconds
// that need untimed preparation between calls (prep may be nil).
func (b *battery) each(name string, reps int, prep, fn func()) float64 {
	sp := b.tr.Begin(Root, "stage:"+name, -1)
	defer sp.End()
	before := b.tr.refKernel(sp, -1)
	raws := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if prep != nil {
			prep()
		}
		call := b.tr.Begin(sp, name, -1)
		t0 := time.Now()
		fn()
		raws = append(raws, time.Since(t0).Seconds())
		call.End()
	}
	after := b.tr.refKernel(sp, -1)
	return Normalise(time.Duration(Median(raws)*float64(time.Second)), before.CPU, after.CPU)
}

// mallocsDuring counts heap allocations made by fn.
func mallocsDuring(fn func()) uint64 {
	var a, z runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&z)
	return z.Mallocs - a.Mallocs
}

func (b *battery) prepare() error {
	b.events = make([][]trace.Event, stageWriters)
	for w := range b.events {
		evs := make([]trace.Event, stageEvents)
		for i := range evs {
			evs[i] = GenEvent(b.seed, int32(w), i)
		}
		b.events[w] = evs
	}
	b.packs = map[int][][][]byte{}
	for _, v := range []int{trace.PackV1, trace.PackV2, trace.PackV3} {
		var wire int64
		for w, evs := range b.events {
			pk, n, err := encodeWriter(v, IngestCorpus.EventsPerPack, w, evs, true)
			if err != nil {
				return err
			}
			b.packs[v] = append(b.packs[v], pk)
			wire += n
		}
		b.set(fmt.Sprintf("trace.wire_bytes_per_event_v%d", v), float64(wire)/float64(stageWriters*stageEvents))
	}
	return nil
}

const stageTotal = stageWriters * stageEvents

func nsPerEvent(secs float64, events int) float64 { return secs * 1e9 / float64(events) }

// traceStages times the pack codecs.
func (b *battery) traceStages() {
	for _, v := range []int{trace.PackV1, trace.PackV3} {
		v := v
		secs := b.timed(fmt.Sprintf("trace.encode_v%d", v), func(stage SpanRef) {
			sp := b.tr.Begin(stage, "trace.NewBuilder+Add+Take", -1)
			for w, evs := range b.events {
				if _, _, err := encodeWriter(v, IngestCorpus.EventsPerPack, w, evs, false); b.check(err) {
					return
				}
			}
			sp.End()
		})
		b.set(fmt.Sprintf("trace.encode_v%d_ns_per_event", v), nsPerEvent(secs, stageTotal))
	}
	var sink int64
	nop := func(ev *trace.Event) { sink += ev.Size }
	decode := func(version int) func(SpanRef) {
		return func(stage SpanRef) {
			sp := b.tr.Begin(stage, "trace.StreamDecoder.DecodeDispatch", -1)
			for _, packs := range b.packs[version] {
				var dec trace.StreamDecoder
				for _, pk := range packs {
					if _, err := dec.DecodeDispatch(pk, nop); b.check(err) {
						return
					}
				}
			}
			sp.End()
		}
	}
	b.set("trace.decode_v1_ns_per_event", nsPerEvent(b.timed("trace.decode_v1", decode(trace.PackV1)), stageTotal))
	b.set("trace.decode_v3_ns_per_event", nsPerEvent(b.timed("trace.decode_v3", decode(trace.PackV3)), stageTotal))
	b.set("trace.decode_allocs_per_kevent", float64(mallocsDuring(func() { decode(trace.PackV3)(Root) }))/float64(stageTotal)*1e3)
}

// analysisStages times the fold, the fused absorb and the parallel
// lanes on the 64-rank default module set.
func (b *battery) analysisStages() {
	opts := analysis.PartialOptions{AppSize: IngestCorpus.Writers}
	fold := func(stage SpanRef) {
		rep := analysis.NewReplica(AppID, opts)
		sp := b.tr.Begin(stage, "analysis.Replica.Fold", -1)
		for _, evs := range b.events {
			for i := range evs {
				rep.Fold(&evs[i])
			}
		}
		sp.End()
	}
	b.set("analysis.fold_ns_per_event", nsPerEvent(b.timed("analysis.fold", fold), stageTotal))
	b.set("analysis.fold_allocs_per_kevent", float64(mallocsDuring(func() { fold(Root) }))/float64(stageTotal)*1e3)

	absorb := func(lanes int) func(SpanRef) {
		return func(stage SpanRef) {
			bb := blackboard.New(blackboard.Config{Workers: Procs})
			defer bb.Close()
			disp, err := analysis.NewDispatcher(bb)
			if b.check(err) {
				return
			}
			pipe, err := disp.AddApp(AppID, benchApp, IngestCorpus.Writers)
			if b.check(err) {
				return
			}
			fi := analysis.NewParallelFusedIngest(disp, lanes, 0)
			if lanes > 0 && b.check(pipe.EnableReplicas(0)) {
				return
			}
			sp := b.tr.Begin(stage, "analysis.FusedIngest.Absorb", -1)
			feeders := lanes
			if feeders < 1 {
				feeders = 1
			}
			var wg sync.WaitGroup
			for g := 0; g < feeders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					// Writer w stays on feeder w%feeders, which is also its
					// lane: per-writer order holds and lanes do not contend.
					for w := g; w < stageWriters; w += feeders {
						for _, pk := range b.packs[trace.PackV3][w] {
							if _, err := fi.Absorb(w, pk); b.check(err) {
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			fi.Sync()
			pipe.Settle()
			sp.End()
			if got := pipe.Profiler.Events(); got != stageTotal {
				b.check(fmt.Errorf("bench: absorb stage analyzed %d of %d events", got, stageTotal))
			}
		}
	}
	b.set("analysis.fused_absorb_ns_per_event", nsPerEvent(b.timed("analysis.fused_absorb", absorb(0)), stageTotal))
	// The parallel lanes are reported as raw wall time: two goroutines
	// on two Ps compete with the reference kernel for nothing, and a
	// wall-clock speed-up is the claim a lanes change would make.
	sp := b.tr.Begin(Root, "stage:analysis.fused_lanes2", -1)
	var raws []float64
	for i := 0; i < stageReps; i++ {
		t0 := time.Now()
		absorb(2)(sp)
		raws = append(raws, time.Since(t0).Seconds())
	}
	sp.End()
	b.set("analysis.fused_lanes2_ns_per_event", nsPerEvent(Median(raws), stageTotal))
}

// liveStages times the query path's pieces on the 256-rank,
// all-modules state daemon_live_query keeps: the windowed fold, and the
// seal (Flush → DecodePartial → Merge), MergeReset, canonical encode
// and state framing around one poll interval's worth of events.
func (b *battery) liveStages() error {
	cfg := LiveQuery
	c, err := BuildCorpus(cfg.corpus(), b.seed)
	if err != nil {
		return err
	}
	opts := liveOptions(cfg.Ranks)
	// Pre-decode the segment's events in arrival order.
	var evs []trace.Event
	decs := make([]trace.StreamDecoder, cfg.Ranks)
	for _, pk := range c.Packs[:cfg.packs()] {
		if _, err := decs[pk.Src].DecodeDispatch(pk.Data, func(ev *trace.Event) { evs = append(evs, *ev) }); err != nil {
			return err
		}
	}
	secs := b.timed("analysis.window_fold", func(stage SpanRef) {
		rep := analysis.NewReplica(AppID, opts)
		sp := b.tr.Begin(stage, "analysis.Replica.Fold", -1)
		for i := range evs {
			rep.Fold(&evs[i])
		}
		sp.End()
	})
	b.set("analysis.window_fold_ns_per_event", nsPerEvent(secs, len(evs)))

	// One poll interval: the events of PollTicks ticks.
	interval := cfg.PollTicks * cfg.PacksPerTick * cfg.EventsPerPack
	preload := cfg.PreloadPacks * cfg.EventsPerPack
	intervals := (len(evs) - preload) / interval
	cum := analysis.NewPartial(AppID, opts)
	for i := range evs[:preload] {
		cum.AddEvent(&evs[i])
	}
	delta := analysis.NewPartial(AppID, opts)
	rep := analysis.NewReplica(AppID, opts)
	next := 0
	fill := func(add func(*trace.Event)) func() {
		return func() {
			k := next % intervals
			next++
			for i := range evs[preload+k*interval : preload+(k+1)*interval] {
				add(&evs[preload+k*interval+i])
			}
		}
	}
	const reps = 20
	var buf []byte
	var sizes []float64
	us := func(secs float64) float64 { return secs * 1e6 }
	b.set("analysis.partial_flush_us", us(b.each("analysis.Partial.Flush", reps, fill(delta.AddEvent), func() {
		buf = delta.Flush(buf[:0], false)
		sizes = append(sizes, float64(len(buf)))
	})))
	b.set("analysis.partial_bytes", Median(sizes))
	var dp *analysis.Partial
	b.set("analysis.partial_decode_us", us(b.each("analysis.DecodePartial", reps, nil, func() {
		var err error
		dp, err = analysis.DecodePartial(buf)
		b.check(err)
	})))
	b.set("analysis.partial_merge_us", us(b.each("analysis.Partial.Merge", reps, nil, func() {
		b.check(cum.Merge(dp))
	})))
	b.set("analysis.merge_reset_us", us(b.each("analysis.Partial.MergeReset", reps, fill(rep.Fold), func() {
		b.check(delta.MergeReset(rep.Partial()))
	})))
	var canon []byte
	b.set("analysis.canonical_us", us(b.each("analysis.Partial.AppendCanonical", reps, nil, func() {
		canon = cum.AppendCanonical(canon[:0])
	})))
	st := wire.State{To: 1, Full: true, Apps: [][]byte{canon}}
	var enc []byte
	b.set("wire.state_encode_us", us(b.each("wire.EncodeState", reps, nil, func() { enc = wire.EncodeState(st) })))
	b.set("wire.state_parse_us", us(b.each("wire.ParseState", reps, nil, func() {
		_, err := wire.ParseState(enc)
		b.check(err)
	})))
	return nil
}

// boardStage times the per-event blackboard path: v1 packs posted raw,
// dispatched, unpacked and folded by the knowledge sources.
func (b *battery) boardStage() {
	const writers = 4 // the board path is ~30× slower than the fused one
	var dropped int64
	secs := b.timed("blackboard.post_drain", func(stage SpanRef) {
		bb := blackboard.New(blackboard.Config{Workers: Procs})
		defer bb.Close()
		disp, err := analysis.NewDispatcher(bb)
		if b.check(err) {
			return
		}
		pipe, err := disp.AddApp(AppID, benchApp, IngestCorpus.Writers)
		if b.check(err) {
			return
		}
		sp := b.tr.Begin(stage, "analysis.Dispatcher.PostRaw+Drain", -1)
		for _, packs := range b.packs[trace.PackV1][:writers] {
			for _, pk := range packs {
				disp.PostRaw(pk)
			}
		}
		bb.Drain()
		sp.End()
		dropped += bb.Stats().Dropped
		if got := pipe.Profiler.Events(); got != writers*stageEvents {
			b.check(fmt.Errorf("bench: board stage analyzed %d of %d events", got, writers*stageEvents))
		}
	})
	b.set("blackboard.post_drain_ns_per_event", nsPerEvent(secs, writers*stageEvents))
	b.set("blackboard.dropped", float64(dropped))
}

// wireStages times pack framing into and out of a memory buffer.
func (b *battery) wireStages() {
	var packs [][]byte
	var packBytes int
	for _, pw := range b.packs[trace.PackV3] {
		for _, pk := range pw {
			packs = append(packs, pk)
			packBytes += len(pk)
		}
	}
	var stream bytes.Buffer
	secs := b.timed("wire.frame_write", func(stage SpanRef) {
		stream.Reset()
		sp := b.tr.Begin(stage, "wire.WriteFrame", -1)
		for i, pk := range packs {
			if b.check(wire.WriteFrame(&stream, wire.TypePack, wire.EncodePack(uint32(i%stageWriters), pk))) {
				return
			}
		}
		sp.End()
	})
	b.set("wire.frame_write_ns_per_pack", secs*1e9/float64(len(packs)))
	b.set("wire.frame_overhead_bytes_per_pack", float64(stream.Len()-packBytes)/float64(len(packs)))
	framed := stream.Bytes()
	secs = b.timed("wire.frame_read", func(stage SpanRef) {
		fr := wire.NewReader(bytes.NewReader(framed))
		sp := b.tr.Begin(stage, "wire.Reader.Next", -1)
		n := 0
		for {
			f, err := fr.Next()
			if err == io.EOF {
				break
			}
			if b.check(err) {
				return
			}
			if _, _, err := wire.ParsePack(f.Payload); b.check(err) {
				return
			}
			n++
		}
		sp.End()
		if n != len(packs) {
			b.check(fmt.Errorf("bench: read %d of %d frames", n, len(packs)))
		}
	})
	b.set("wire.frame_read_ns_per_pack", secs*1e9/float64(len(packs)))
}

// reportStages times rendering the ingest workloads' report.
func (b *battery) reportStages() error {
	c, err := BuildCorpus(CorpusConfig{Writers: IngestCorpus.Writers, EventsPerWriter: stageEvents / 4, EventsPerPack: IngestCorpus.EventsPerPack, PackVersion: trace.PackV3}, b.seed)
	if err != nil {
		return err
	}
	ref, err := foldReference(c, analysis.PartialOptions{})
	if err != nil {
		return err
	}
	rep := partialReport(ref.partial, c.Config.Writers)
	var buf bytes.Buffer
	const reps = 20
	b.set("report.render_us", 1e6*b.each("report.Report.Render", reps, buf.Reset, func() {
		b.check(rep.Render(&buf))
	}))
	b.set("report.bytes", float64(buf.Len()))
	// The reduction the paper is named for: logical event bytes in,
	// report bytes out, on the full ingest corpus.
	logical := float64(IngestCorpus.Writers) * float64(IngestCorpus.EventsPerWriter) * RecordSize
	b.set("report.reduction_ratio", logical/float64(buf.Len()))
	b.set("report.json_us", 1e6*b.each("report.Report.WriteJSON", reps, buf.Reset, func() {
		b.check(rep.WriteJSON(&buf, true))
	}))
	return nil
}

// simStages times the simulation without the analysis, and reads the
// two exact virtual-time results that guard the paper's figures.
func (b *battery) simStages(profileSecsPerEvent float64) error {
	apps, err := simWorkloads()
	if err != nil {
		return err
	}
	var events int64
	secs := b.timed("exp.capture_run", func(stage SpanRef) {
		sp := b.tr.Begin(stage, "exp.CaptureRun", -1)
		cp, err := exp.CaptureRun(exp.Tera100(), apps, simOptions)
		sp.End()
		if b.check(err) {
			return
		}
		events = cp.Events
	})
	if b.err != nil {
		return b.err
	}
	capture := secs / float64(events)
	b.set("exp.capture_run_ns_per_event", capture*1e9)
	b.set("exp.analysis_share", 1-capture/profileSecsPerEvent)

	sp := b.tr.Begin(Root, "exp.MeasureOverhead", -1)
	cg, err := nas.CG(nas.ClassA, 64, simIters)
	if err != nil {
		return err
	}
	pt, err := exp.MeasureOverhead(exp.Tera100(), cg, exp.ToolOnline, 16)
	sp.End()
	if err != nil {
		return err
	}
	b.set("instrument.app_overhead_pct", pt.OverheadPct)
	sp = b.tr.Begin(Root, "exp.StreamThroughputPacked", -1)
	st, err := exp.StreamThroughputPacked(exp.Tera100(), 64, 16, 4<<20, exp.StreamBlockSize, exp.EventRecordSize, trace.PackV3)
	sp.End()
	if err != nil {
		return err
	}
	b.set("vmpi.stream_sim_gbps", st.Throughput/1e9)
	return nil
}
