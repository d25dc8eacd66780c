package bench

import (
	"fmt"

	"repro/internal/trace"
)

// RecordSize is the logical per-event record size of every generated
// pack: the online tool's 256-byte record (exp.EventRecordSize), so a
// "64 KiB-logical" pack holds 256 events.
const RecordSize = 256

// AppID is the application id every generated pack carries.
const AppID = 1

// CorpusConfig shapes one generated corpus. The engine under test only
// ever sees the packs built from it.
type CorpusConfig struct {
	// Writers is the number of pack sources (= application ranks).
	Writers int
	// EventsPerWriter is each source's stream length.
	EventsPerWriter int
	// EventsPerPack fixes the pack capacity in events (the pack's logical
	// byte size is EventsPerPack*RecordSize plus the header).
	EventsPerPack int
	// PackVersion selects the wire format (trace.PackV1..PackV3).
	PackVersion int
}

// Pack is one encoded pack and the writer it belongs to.
type Pack struct {
	Src  uint32
	Data []byte
}

// Corpus is a generated, encoded event corpus. Packs are interleaved
// round-robin over the writers (pack k of writer 0, of writer 1, ...),
// which preserves each writer's emission order — the invariant the v3
// stream dictionary needs.
type Corpus struct {
	Config CorpusConfig
	Seed   int64
	Packs  []Pack
	// Events, WireBytes and LogicalBytes total the corpus.
	Events       int64
	WireBytes    int64
	LogicalBytes int64
}

// mix is splitmix64: the corpus's only source of variation, a pure
// function of (seed, rank, index).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cycleLen is the length of the generator's call cycle.
const cycleLen = 7

// GenEvent returns event i of the given rank's stream. The stream has
// the shape of exp.Fig14Event — a fixed cycle of non-blocking
// point-to-point calls and a collective, nearest-neighbour peers, a
// small set of message sizes, monotone timestamps 1.5 µs apart — with
// two differences: jitter, sizes and the collective flavour are drawn
// from the seed, and the cycle's Wait calls name their source and tag,
// so the wait-state module pairs every message of the r↔r^1 and r↔r^2
// channels instead of queueing sends forever.
func GenEvent(seed int64, rank int32, i int) trace.Event {
	r := mix(uint64(seed)*0x100000001b3 ^ uint64(uint32(rank))<<32 ^ uint64(uint32(i)))
	slot := i % cycleLen
	round := i / cycleLen
	ev := trace.Event{
		Rank: rank,
		Peer: -1,
		Tag:  -1,
		Comm: 1,
		Ctx:  uint32(10 + slot),
	}
	// Slots 0-2 talk to r^1, slots 3-5 to r^2.
	peer := rank ^ int32(1+slot/3)
	tag := int32(100 + round%4)
	switch slot {
	case 0, 3:
		ev.Kind, ev.Peer, ev.Tag = trace.KindIsend, peer, tag
		ev.Size = int64(8192 << ((r >> 40) % 3))
	case 1, 4:
		ev.Kind, ev.Peer, ev.Tag = trace.KindIrecv, peer, tag
		ev.Size = int64(8192 << ((r >> 40) % 3))
	case 2, 5:
		ev.Kind, ev.Peer, ev.Tag = trace.KindWait, peer, tag
	default:
		ev.Kind = trace.KindAllreduce
		if (r>>44)%8 == 0 {
			ev.Kind = trace.KindBarrier
		}
		ev.Size = 2048
	}
	ev.TStart = int64(i)*1500 + int64(r%300)
	ev.TEnd = ev.TStart + 600 + int64((r>>20)%500)
	return ev
}

// encodeWriter builds writer w's packs of eventsPerPack events in the given
// format, recycling one output buffer the way the online recorder does.
// With keep it returns a copy of every pack; without, only their total
// size.
func encodeWriter(version, eventsPerPack, w int, events []trace.Event, keep bool) (packs [][]byte, wireBytes int64, err error) {
	packBytes := trace.PackHeaderSize + eventsPerPack*RecordSize
	bld, err := trace.NewBuilder(version, AppID, int32(w), RecordSize, packBytes)
	if err != nil {
		return nil, 0, err
	}
	take := func() {
		pk := bld.Take()
		if pk == nil {
			return
		}
		wireBytes += int64(len(pk))
		if keep {
			// Take aliases the builder's output buffer; the caller gets its
			// own copy.
			packs = append(packs, append([]byte(nil), pk...))
		}
		bld.Reset(pk[:0])
	}
	for i := range events {
		if bld.Add(&events[i]) {
			take()
		}
	}
	take()
	return packs, wireBytes, nil
}

// BuildCorpus generates and encodes the corpus for a seed. The result is
// a pure function of (cfg, seed).
func BuildCorpus(cfg CorpusConfig, seed int64) (*Corpus, error) {
	if cfg.Writers <= 0 || cfg.EventsPerWriter <= 0 || cfg.EventsPerPack <= 0 {
		return nil, fmt.Errorf("bench: corpus needs writers, events and a pack size (%+v)", cfg)
	}
	perWriter := make([][][]byte, cfg.Writers)
	c := &Corpus{Config: cfg, Seed: seed}
	events := make([]trace.Event, cfg.EventsPerWriter)
	for w := range perWriter {
		for i := range events {
			events[i] = GenEvent(seed, int32(w), i)
		}
		packs, n, err := encodeWriter(cfg.PackVersion, cfg.EventsPerPack, w, events, true)
		if err != nil {
			return nil, err
		}
		perWriter[w] = packs
		c.WireBytes += n
	}
	c.Events = int64(cfg.Writers) * int64(cfg.EventsPerWriter)
	c.LogicalBytes = c.Events * RecordSize
	for k := 0; ; k++ {
		more := false
		for w := range perWriter {
			if k < len(perWriter[w]) {
				c.Packs = append(c.Packs, Pack{Src: uint32(w), Data: perWriter[w][k]})
				more = true
			}
		}
		if !more {
			break
		}
	}
	return c, nil
}
