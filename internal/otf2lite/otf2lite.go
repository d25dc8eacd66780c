// Package otf2lite implements a minimal structured trace archive inspired
// by OTF2, the format the paper plans to export selective traces into "in
// order to combine our analysis with existing tools such as Vampir" (§VI).
//
// Like OTF2 — and unlike the paper's raw streaming representation, which
// ships the C struct verbatim for speed — the archive separates
// *definitions* from *events*:
//
//   - a definitions section interns strings and declares regions (call
//     names) and locations (ranks), so events reference small integer ids;
//   - the event section stores one record per event with varint fields and
//     delta-encoded timestamps per location, which is where structured
//     trace formats win their size advantage over flat records.
//
// The writer buffers events until Finish (definitions must precede events
// in the archive, and delta encoding needs a stable per-location order);
// the reader streams events back in write order. A compression-ratio
// benchmark against the flat pack format lives in the package tests.
package otf2lite

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/trace"
)

var magic = [8]byte{'O', 'T', 'F', '2', 'L', 'I', 'T', 'E'}

const version = 1

// Writer accumulates events and emits a complete archive on Finish.
type Writer struct {
	regions map[trace.Kind]uint32
	kinds   []trace.Kind
	locs    map[int32]uint32
	ranks   []int32
	events  []trace.Event
}

// NewWriter creates an empty archive writer.
func NewWriter() *Writer {
	return &Writer{
		regions: make(map[trace.Kind]uint32),
		locs:    make(map[int32]uint32),
	}
}

// Add appends one event to the archive.
func (w *Writer) Add(ev *trace.Event) {
	if _, ok := w.regions[ev.Kind]; !ok {
		w.regions[ev.Kind] = uint32(len(w.kinds))
		w.kinds = append(w.kinds, ev.Kind)
	}
	if _, ok := w.locs[ev.Rank]; !ok {
		w.locs[ev.Rank] = uint32(len(w.ranks))
		w.ranks = append(w.ranks, ev.Rank)
	}
	w.events = append(w.events, *ev)
}

func putUvarint(b *bufio.Writer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.Write(tmp[:n])
}

func putVarint(b *bufio.Writer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	b.Write(tmp[:n])
}

// Finish writes the archive: definitions first, then every event in write
// order with per-location timestamp deltas. The writer may be reused
// afterwards (it keeps its definitions but clears the events).
func (w *Writer) Finish(out io.Writer) error {
	b := bufio.NewWriter(out)
	b.Write(magic[:])
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], version)
	b.Write(hdr[:])

	// Definitions: regions (call-name strings) and locations (ranks).
	putUvarint(b, uint64(len(w.kinds)))
	for _, k := range w.kinds {
		name := k.String()
		putUvarint(b, uint64(len(name)))
		b.WriteString(name)
		b.WriteByte(byte(k))
	}
	putUvarint(b, uint64(len(w.ranks)))
	for _, r := range w.ranks {
		putVarint(b, int64(r))
	}

	// Events: varint fields, timestamps delta-encoded per location.
	putUvarint(b, uint64(len(w.events)))
	lastStart := make([]int64, len(w.ranks))
	for i := range w.events {
		ev := &w.events[i]
		loc := w.locs[ev.Rank]
		putUvarint(b, uint64(loc))
		putUvarint(b, uint64(w.regions[ev.Kind]))
		putVarint(b, int64(ev.Peer))
		putVarint(b, int64(ev.Tag))
		putUvarint(b, uint64(ev.Comm))
		putUvarint(b, uint64(ev.Ctx))
		putVarint(b, ev.Size)
		putVarint(b, ev.TStart-lastStart[loc])
		putVarint(b, ev.TEnd-ev.TStart)
		lastStart[loc] = ev.TStart
	}
	w.events = w.events[:0]
	return b.Flush()
}

// Archive is a decoded archive header: the definition tables.
type Archive struct {
	// Kinds maps region ids to event kinds.
	Kinds []trace.Kind
	// Names holds the interned region names, parallel to Kinds.
	Names []string
	// Ranks maps location ids to application ranks.
	Ranks []int32
	// Events is the number of event records.
	Events int
}

// Read decodes an archive, invoking fn for every event in write order.
// fn may be nil to read just the definitions.
func Read(in io.Reader, fn func(*trace.Event)) (*Archive, error) {
	b := bufio.NewReader(in)
	var m [8]byte
	if _, err := io.ReadFull(b, m[:]); err != nil {
		return nil, fmt.Errorf("otf2lite: short magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("otf2lite: bad magic %q", m[:])
	}
	var hdr [4]byte
	if _, err := io.ReadFull(b, hdr[:]); err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(hdr[:]); v != version {
		return nil, fmt.Errorf("otf2lite: unsupported version %d", v)
	}

	arch := &Archive{}
	nRegions, err := binary.ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nRegions; i++ {
		nameLen, err := binary.ReadUvarint(b)
		if err != nil {
			return nil, err
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(b, name); err != nil {
			return nil, err
		}
		kb, err := b.ReadByte()
		if err != nil {
			return nil, err
		}
		arch.Names = append(arch.Names, string(name))
		arch.Kinds = append(arch.Kinds, trace.Kind(kb))
	}
	nLocs, err := binary.ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nLocs; i++ {
		r, err := binary.ReadVarint(b)
		if err != nil {
			return nil, err
		}
		arch.Ranks = append(arch.Ranks, int32(r))
	}

	nEvents, err := binary.ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	arch.Events = int(nEvents)
	lastStart := make([]int64, len(arch.Ranks))
	for i := uint64(0); i < nEvents; i++ {
		loc, err := binary.ReadUvarint(b)
		if err != nil {
			return nil, err
		}
		if loc >= uint64(len(arch.Ranks)) {
			return nil, fmt.Errorf("otf2lite: event %d references unknown location %d", i, loc)
		}
		region, err := binary.ReadUvarint(b)
		if err != nil {
			return nil, err
		}
		if region >= uint64(len(arch.Kinds)) {
			return nil, fmt.Errorf("otf2lite: event %d references unknown region %d", i, region)
		}
		peer, err := binary.ReadVarint(b)
		if err != nil {
			return nil, err
		}
		tag, err := binary.ReadVarint(b)
		if err != nil {
			return nil, err
		}
		comm, err := binary.ReadUvarint(b)
		if err != nil {
			return nil, err
		}
		ctx, err := binary.ReadUvarint(b)
		if err != nil {
			return nil, err
		}
		size, err := binary.ReadVarint(b)
		if err != nil {
			return nil, err
		}
		dStart, err := binary.ReadVarint(b)
		if err != nil {
			return nil, err
		}
		dur, err := binary.ReadVarint(b)
		if err != nil {
			return nil, err
		}
		tStart := lastStart[loc] + dStart
		lastStart[loc] = tStart
		if fn != nil {
			fn(&trace.Event{
				Kind: arch.Kinds[region], Rank: arch.Ranks[loc],
				Peer: int32(peer), Tag: int32(tag),
				Comm: uint32(comm), Ctx: uint32(ctx),
				Size: size, TStart: tStart, TEnd: tStart + dur,
			})
		}
	}
	return arch, nil
}

// SortByLocationTime orders events by (rank, start time): the layout that
// maximizes delta-compression and matches OTF2's per-location streams.
// Writers may call it on their own event slice before Finish via Sort.
func (w *Writer) Sort() {
	sort.SliceStable(w.events, func(i, j int) bool {
		if w.events[i].Rank != w.events[j].Rank {
			return w.events[i].Rank < w.events[j].Rank
		}
		return w.events[i].TStart < w.events[j].TStart
	})
}
