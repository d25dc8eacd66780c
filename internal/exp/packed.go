package exp

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/vmpi"
)

// Fig14Event returns event i of the deterministic Fig14-style workload
// for one writer rank: a short cycle of point-to-point and collective
// kinds over a handful of call sites, nearest-neighbor peers, a small
// message-size set and microsecond-scale monotone timestamps. This is the
// near-constant, delta-friendly shape real instrumentation streams have,
// and the reference workload for codec benchmarks: the same generator
// feeds the packed throughput sweep, the PR4 bench recorder and the codec
// microbenchmarks, so their compression figures are comparable.
func Fig14Event(i int, rank int32) trace.Event {
	// Cheap deterministic jitter (no math/rand: identical everywhere).
	r := uint64(i)*2654435761 + uint64(uint32(rank))*40503 + 12345
	kinds := [...]trace.Kind{
		trace.KindIsend, trace.KindIrecv, trace.KindWait, trace.KindIsend,
		trace.KindIrecv, trace.KindWaitall, trace.KindAllreduce,
	}
	k := kinds[i%len(kinds)]
	var peer int32 = -1
	var size int64
	switch {
	case k.IsP2P():
		peer = rank ^ int32(1+i%2) // nearest neighbors
		size = int64(8192 << (i % 3))
	case k.IsCollective():
		size = 2048
	}
	start := int64(i)*1500 + int64(r%300)
	return trace.Event{
		Kind:   k,
		Rank:   rank,
		Peer:   peer,
		Tag:    int32(100 + i%4),
		Comm:   1,
		Ctx:    uint32(10 + i%len(kinds)),
		Size:   size,
		TStart: start,
		TEnd:   start + 600 + int64(r%500),
	}
}

// PackedStreamPoint is one measurement of the packed Figure 14 variant:
// stream throughput when the blocks carry real encoded packs instead of
// size-only placeholders, so the wire format's density shows up in the
// simulated GB/s directly.
type PackedStreamPoint struct {
	StreamPoint
	// PackVersion is the wire format used (trace.PackV1, PackV2 or PackV3).
	PackVersion int
	// WireBytes is the total encoded bytes that crossed the streams
	// (equals StreamPoint.Bytes).
	WireBytes int64
	// LogicalBytes is the fixed-record (v1-equivalent) volume of the same
	// events; WireBytes/LogicalBytes < 1 is the codec's saving.
	LogicalBytes int64
	// Events is the total events streamed and decoded.
	Events int64
	// EventRate is Events/Seconds: the figure of merit once the wire is
	// bytes-bound — a denser codec moves more events through the same
	// interconnect.
	EventRate float64
}

// StreamThroughputPacked runs the Figure 14 coupling benchmark with real
// event payloads: each writer encodes perWriter logical bytes of the
// deterministic Fig14 workload through the selected pack codec and
// streams the encoded packs; each reader decodes every block in place
// through its writer's trace.StreamDecoder before releasing it. recordSize is
// the logical per-event record size (EventRecordSize in the paper's
// calibration).
func StreamThroughputPacked(p Platform, writers, ratio int, perWriter, blockSize int64, recordSize, packVersion int) (PackedStreamPoint, error) {
	if _, err := packVersionOf(packVersion); err != nil {
		return PackedStreamPoint{}, err
	}
	readers := Readers(writers, ratio)
	var wireBytes, logicalBytes, wrote, decoded int64
	run := &coupledRun{blockSize: blockSize}
	run.rawWriters(writers, nil, packVersion, func(sess *vmpi.Session, st *vmpi.Stream) error {
		rank := int32(sess.LocalRank())
		b, err := trace.NewBuilder(packVersion, uint32(sess.PartitionID()), rank, recordSize, int(blockSize))
		if err != nil {
			return err
		}
		flush := func() error {
			n := b.Count()
			payload := b.Take()
			if payload == nil {
				return nil
			}
			if err := st.Write(payload, int64(len(payload))); err != nil {
				return err
			}
			wireBytes += int64(len(payload))
			logicalBytes += int64(trace.PackHeaderSize + n*recordSize)
			wrote += int64(n)
			b.Reset(trace.GetBuffer(b.CapBytes()))
			return nil
		}
		var logical int64
		for i := 0; logical < perWriter; i++ {
			ev := Fig14Event(i, rank)
			logical += int64(recordSize)
			if b.Add(&ev) {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return flush()
	})
	count := func(*trace.Event) { decoded++ }
	run.analyzer(readers, nil, false, func(*mpi.Rank, *vmpi.Session) (reader, error) {
		// One persistent StreamDecoder per source rank serves every
		// format: v3 packs index a per-writer cross-pack dictionary.
		decs := make(trace.Decoders)
		return reader{onBlock: func(blk *vmpi.Block) error {
			if _, err := decs.For(blk.From).DecodeDispatch(blk.Payload, count); err != nil {
				return fmt.Errorf("exp: packed stream block from rank %d: %w", blk.From, err)
			}
			blk.Release()
			return nil
		}}, nil
	})
	run.build(p, 1)
	if err := run.run(); err != nil {
		return PackedStreamPoint{}, err
	}
	if decoded != wrote {
		return PackedStreamPoint{}, fmt.Errorf("exp: packed stream decoded %d of %d events", decoded, wrote)
	}
	secs := run.world.ProgramFinish(1).Seconds()
	return PackedStreamPoint{
		StreamPoint: StreamPoint{
			Writers: writers, Readers: readers, Ratio: ratio,
			Bytes: wireBytes, Seconds: secs,
			Throughput:  float64(wireBytes) / secs,
			FSShare:     p.FSShare(writers),
			WriteStalls: run.stalls,
		},
		PackVersion:  packVersion,
		WireBytes:    wireBytes,
		LogicalBytes: logicalBytes,
		Events:       wrote,
		EventRate:    float64(wrote) / secs,
	}, nil
}
