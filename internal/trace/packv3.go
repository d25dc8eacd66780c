// Pack wire format v3: v2's delta+varint columns with a persistent
// per-stream dictionary.
//
// v2 interns the (Kind, Comm, Ctx) triple per pack: every pack re-ships
// the dictionary entries it references, so a long stream re-encodes the
// same handful of call sites thousands of times. v3 makes the dictionary
// a property of the stream instead of the pack: the builder interns each
// triple once for the stream's lifetime and every pack carries only a
// dictionary-delta section — the entries first referenced by that pack —
// while the event columns index the full accumulated dictionary. After
// the first few packs of a steady workload the delta section is empty
// and a v3 pack is pure column data.
//
// The price is state: decoding pack N requires the dictionary built from
// packs 1..N-1 of the same writer, so v3 packs must be decoded in
// per-writer order by a stateful StreamDecoder (the stream layer
// guarantees per-writer delivery order; the blackboard's worker pool does
// not, which is why v3 packs take the fused stream-ingest path instead of
// traveling the board — see analysis.FusedIngest). v2 remains the right
// format for short streams and stateless consumers: on a stream of a
// single pack, v3's delta section is exactly v2's dictionary plus two
// prefix bytes, so v3 strictly loses there.
//
// Wire layout (header as v2, new magic):
//
//	offset 0  magic       uint32  = 0x334d5056 ("VPM3")
//	       4  appID       uint32
//	       8  srcRank     uint32
//	      12  count       uint32  events in the pack
//	      16  recordSize  uint32  logical v1 record size (accounting)
//	      20  bodyLen     uint32  encoded bytes after the header
//	      24  body:
//	          uvarint dictBase — stream dictionary size before this pack
//	          uvarint dictAdd  — entries introduced by this pack, then
//	              dictAdd entries of kind (1 byte), comm (uvarint),
//	              ctx (uvarint)
//	          7 columns as v2 (column 0 indexes the full dictionary,
//	              [0, dictBase+dictAdd))
//
// dictBase makes loss detectable: a decoder whose dictionary disagrees
// with a pack's base fails loudly ("dictionary gap") instead of folding
// events under the wrong call sites. dictBase == 0 is a stream-dictionary
// restart (a recorder switching formats mid-run starts a fresh builder);
// the decoder resets and resynchronizes. Delta chains still restart from
// zero at each pack, so only the dictionary is cross-pack state.
package trace

import (
	"encoding/binary"
	"fmt"
	"slices"
)

const (
	packMagicV3 = 0x334d5056 // "VPM3" little-endian

	// worstPerEventV3 bounds the encoded growth of one Add: v2's worst
	// case plus one byte of growth for each of the two dictionary
	// prefixes (base and add count).
	worstPerEventV3 = worstPerEventV2 + 2

	// maxStreamDict caps the persistent dictionary a decoder will grow on
	// behalf of one writer. Real instrumentation streams intern a few
	// dozen call sites; the cap only exists so a hostile stream cannot
	// make a decoder accrete unbounded state across packs.
	maxStreamDict = 1 << 20
)

// PackV3 is the persistent-dictionary column format.
const PackV3 = 3

// StreamDecoder is the one decoder of event packs, every format. For v3 it
// carries one writer's persistent dictionary across packs: packs must be
// fed in the writer's emission order (per-writer stream delivery order),
// and a pack whose dictionary base disagrees with the accumulated state
// fails loudly instead of mis-attributing events. v1 and v2 packs carry no
// cross-pack state, so one per-writer decoder serves a stream whose format
// switches mid-run, and one decoder serves v1/v2 packs that arrive in any
// order (the board's fold keeps one per worker).
//
// Events decode in place from the borrowed buffer: no per-event allocation,
// no intermediate slice, and none per pack once the dictionary storage is
// sized. A decoder is reusable and single-goroutine, like any iterator.
//
//	var d trace.StreamDecoder
//	if err := d.Init(buf); err != nil { ... }
//	for d.Next() {
//	    e := d.Event() // valid until the next Next/Init
//	}
//	if err := d.Err(); err != nil { ... }
//
// DecodeDispatch is the same iteration as one call; the engine's folds use
// it.
type StreamDecoder struct {
	h   Header
	buf []byte
	ev  Event
	err error

	// v1 cursor.
	off int

	// dict is the persistent v3 stream dictionary; scratch holds a v2
	// pack's self-contained dictionary so an interleaved v2 pack never
	// disturbs the v3 state.
	dict    []kctKey
	scratch []kctKey
	// dictLive is the bound column 0 may index for the current pack.
	dictLive int

	colPos, colEnd                [numColumns]int
	i                             int
	prevRank, prevPeer, prevTag   int64
	prevSize, prevTStart, prevDur int64
}

// Decoders holds the per-writer decoders of one ingest loop, keyed by
// whatever identifies a writer there (a universe rank, a source id).
type Decoders map[int]*StreamDecoder

// For returns the writer's decoder, created on its first pack.
func (ds Decoders) For(src int) *StreamDecoder {
	d := ds[src]
	if d == nil {
		d = &StreamDecoder{}
		ds[src] = d
	}
	return d
}

// Init prepares the decoder for the writer's next pack. The buffer is
// borrowed, not copied: it must stay immutable until iteration finishes.
func (d *StreamDecoder) Init(buf []byte) error {
	h, err := PeekHeader(buf)
	if err != nil {
		d.err = err
		d.h = Header{}
		d.i = 0
		d.off = 0
		d.buf = nil
		return err
	}
	d.h = h
	d.buf = buf
	d.err = nil
	d.i = 0
	d.off = PackHeaderSize
	switch h.Version {
	case PackV1:
		return nil
	case PackV2:
		// The same column machinery as v3, with the pack's own dictionary
		// in the scratch slice: a v2 pack must not disturb the v3 state
		// (a stream may interleave formats around a controller switch).
		return d.initColumns(false)
	case PackV3:
		return d.initColumns(true)
	}
	return d.fail(fmt.Errorf("trace: stream decoder cannot decode pack version %d", h.Version))
}

// initColumns parses the dictionary section and column extents. For v3
// the dictionary delta extends the persistent dictionary; a v2 pack's
// self-contained dictionary goes to the scratch slice, leaving the v3
// state untouched.
func (d *StreamDecoder) initColumns(persistent bool) error {
	h := d.h
	buf := d.buf
	d.prevRank, d.prevPeer, d.prevTag = 0, 0, 0
	d.prevSize, d.prevTStart, d.prevDur = 0, 0, 0
	body := PackHeaderSize + h.bodyLen
	pos := PackHeaderSize
	target := &d.scratch
	first := 0
	var count int
	if persistent {
		base, n := binary.Uvarint(buf[pos:body])
		if n <= 0 {
			return d.fail(fmt.Errorf("trace: v3 pack dictionary base invalid"))
		}
		pos += n
		adds, n := binary.Uvarint(buf[pos:body])
		if n <= 0 || adds > uint64(h.Count) {
			return d.fail(fmt.Errorf("trace: v3 pack dictionary delta length invalid"))
		}
		pos += n
		if base == 0 {
			// Stream-dictionary restart: the writer started a fresh
			// builder (format switch, new stream under an old decoder).
			d.dict = d.dict[:0]
		} else if int(base) != len(d.dict) {
			return d.fail(fmt.Errorf("trace: v3 pack dictionary gap: pack base %d, stream has %d entries (lost or reordered pack)", base, len(d.dict)))
		}
		if base+adds > maxStreamDict {
			return d.fail(fmt.Errorf("trace: v3 stream dictionary would exceed %d entries", maxStreamDict))
		}
		target = &d.dict
		first, count = len(d.dict), int(adds)
	} else {
		dictLen, n := binary.Uvarint(buf[pos:body])
		if n <= 0 || dictLen > uint64(h.Count) {
			return d.fail(fmt.Errorf("trace: v2 pack dictionary length invalid"))
		}
		pos += n
		count = int(dictLen)
	}
	need := first + count
	dict := slices.Grow((*target)[:first], count)[:need]
	for i := first; i < need; i++ {
		if pos >= body {
			*target = dict[:first]
			return d.fail(fmt.Errorf("trace: pack dictionary truncated"))
		}
		kind := Kind(buf[pos])
		pos++
		comm, n := binary.Uvarint(buf[pos:body])
		if n <= 0 || comm > 1<<32-1 {
			*target = dict[:first]
			return d.fail(fmt.Errorf("trace: pack dictionary comm invalid"))
		}
		pos += n
		ctx, n := binary.Uvarint(buf[pos:body])
		if n <= 0 || ctx > 1<<32-1 {
			*target = dict[:first]
			return d.fail(fmt.Errorf("trace: pack dictionary ctx invalid"))
		}
		pos += n
		dict[i] = kctKey{kind: kind, comm: uint32(comm), ctx: uint32(ctx)}
	}
	*target = dict
	d.dictLive = need
	for c := 0; c < numColumns; c++ {
		colBytes, n := binary.Uvarint(buf[pos:body])
		if n <= 0 || colBytes > uint64(body-pos-n) {
			return d.fail(fmt.Errorf("trace: pack column %d extent invalid", c))
		}
		pos += n
		d.colPos[c] = pos
		pos += int(colBytes)
		d.colEnd[c] = pos
	}
	if pos != body {
		return d.fail(fmt.Errorf("trace: pack has %d trailing body bytes", body-pos))
	}
	return nil
}

// fail latches the pack's first decode error and ends the iteration.
func (d *StreamDecoder) fail(err error) error {
	if d.err == nil {
		d.err = err
	}
	d.i = d.h.Count
	return d.err
}

// failColumn fails the pack at event i on a varint that does not fit what
// is left of column c.
func (d *StreamDecoder) failColumn(c, i int) error {
	return d.fail(fmt.Errorf("trace: pack column %d truncated at event %d", c, i))
}

// dictAt resolves a column-0 index for the current pack: persistent
// indices for v3, per-pack scratch indices for v2.
func (d *StreamDecoder) dictAt(idx uint64) (kctKey, bool) {
	if idx >= uint64(d.dictLive) {
		return kctKey{}, false
	}
	if d.h.Version == PackV2 {
		return d.scratch[idx], true
	}
	return d.dict[idx], true
}

// Next decodes the next event in place, reporting false at the end of
// the pack or on a malformed record (check Err to distinguish).
func (d *StreamDecoder) Next() bool {
	if d.err != nil || d.i >= d.h.Count {
		return false
	}
	if d.h.Version == PackV1 {
		decodeRecord(d.buf[d.off:], &d.ev)
		d.off += MinRecordSize
		d.i++
		return true
	}
	idx, ok := d.col(0)
	if !ok {
		return false
	}
	key, ok := d.dictAt(idx)
	if !ok {
		d.fail(fmt.Errorf("trace: pack dictionary index %d out of range", idx))
		return false
	}
	dRank, ok1 := d.col(1)
	dPeer, ok2 := d.col(2)
	dTag, ok3 := d.col(3)
	dSize, ok4 := d.col(4)
	dTS, ok5 := d.col(5)
	dDur, ok6 := d.col(6)
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
		return false
	}
	d.prevRank += unzigzag(dRank)
	d.prevPeer += unzigzag(dPeer)
	d.prevTag += unzigzag(dTag)
	d.prevSize += unzigzag(dSize)
	d.prevTStart += unzigzag(dTS)
	d.prevDur += unzigzag(dDur)
	d.ev = Event{
		Kind:   key.kind,
		Comm:   key.comm,
		Ctx:    key.ctx,
		Rank:   int32(d.prevRank),
		Peer:   int32(d.prevPeer),
		Tag:    int32(d.prevTag),
		Size:   d.prevSize,
		TStart: d.prevTStart,
		TEnd:   d.prevTStart + d.prevDur,
	}
	d.i++
	return true
}

// col reads one uvarint from column c, bounds-checked against the
// column's extent.
func (d *StreamDecoder) col(c int) (uint64, bool) {
	v, n := binary.Uvarint(d.buf[d.colPos[c]:d.colEnd[c]])
	if n <= 0 {
		d.failColumn(c, d.i)
		return 0, false
	}
	d.colPos[c] += n
	return v, true
}

// DecodeDispatch is the fused decode path: it iterates the pack and
// invokes fn once per event without materializing records, intermediate
// slices, or per-event copies — the event pointer is the decoder's
// in-place scratch, valid only for the duration of the call. Returns the
// event count. This is what the analyzer's hot path runs: wire bytes in,
// profiler/topology fold calls out, zero allocations in between.
//
// It is the Next loop, not a second decoder: every pack goes through the
// same Init, and the column formats run the same reads in the same order
// with the cursors held in locals (dispatchColumns). Both forms deliver
// the same events, stop at the same event with the same error on malformed
// input, and leave the stream dictionary in the same state.
func (d *StreamDecoder) DecodeDispatch(buf []byte, fn func(*Event)) (int, error) {
	if err := d.Init(buf); err != nil {
		return 0, err
	}
	if d.h.Version != PackV1 {
		return d.dispatchColumns(fn)
	}
	n := 0
	for d.Next() {
		fn(&d.ev)
		n++
	}
	return n, d.err
}

// dispatchColumns is Next unrolled over one v2/v3 pack: the seven column
// cursors, the six delta accumulators and the live dictionary stay in
// locals for the whole pack instead of being reloaded from, and stored
// back to, the decoder around every event. Each read keeps Next's check —
// a varint may not cross its column's end, column 0 may not index past the
// live dictionary — and a failure names the same column at the same event.
func (d *StreamDecoder) dispatchColumns(fn func(*Event)) (int, error) {
	buf := d.buf
	dict := d.dict
	if d.h.Version == PackV2 {
		dict = d.scratch
	}
	dict = dict[:d.dictLive]
	p0, p1, p2, p3, p4, p5, p6 := d.colPos[0], d.colPos[1], d.colPos[2], d.colPos[3], d.colPos[4], d.colPos[5], d.colPos[6]
	e0, e1, e2, e3, e4, e5, e6 := d.colEnd[0], d.colEnd[1], d.colEnd[2], d.colEnd[3], d.colEnd[4], d.colEnd[5], d.colEnd[6]
	var rank, peer, tag, size, tStart, dur int64
	var v uint64
	ev := &d.ev
	count := d.h.Count
	d.i = count // the pack is consumed here: a Next after this finds nothing
	for i := 0; i < count; i++ {
		if oneByte(buf, p0, e0) {
			v, p0 = uint64(buf[p0]), p0+1
		} else if twoBytes(buf, p0, e0) {
			v, p0 = uint64(buf[p0]&0x7f)|uint64(buf[p0+1])<<7, p0+2
		} else if threeBytes(buf, p0, e0) {
			v, p0 = uint64(buf[p0]&0x7f)|uint64(buf[p0+1]&0x7f)<<7|uint64(buf[p0+2])<<14, p0+3
		} else if v, p0 = colUvarint(buf, p0, e0); p0 == 0 {
			return i, d.failColumn(0, i)
		}
		if v >= uint64(len(dict)) {
			return i, d.fail(fmt.Errorf("trace: pack dictionary index %d out of range", v))
		}
		key := dict[v]
		if oneByte(buf, p1, e1) {
			v, p1 = uint64(buf[p1]), p1+1
		} else if twoBytes(buf, p1, e1) {
			v, p1 = uint64(buf[p1]&0x7f)|uint64(buf[p1+1])<<7, p1+2
		} else if threeBytes(buf, p1, e1) {
			v, p1 = uint64(buf[p1]&0x7f)|uint64(buf[p1+1]&0x7f)<<7|uint64(buf[p1+2])<<14, p1+3
		} else if v, p1 = colUvarint(buf, p1, e1); p1 == 0 {
			return i, d.failColumn(1, i)
		}
		rank += unzigzag(v)
		if oneByte(buf, p2, e2) {
			v, p2 = uint64(buf[p2]), p2+1
		} else if twoBytes(buf, p2, e2) {
			v, p2 = uint64(buf[p2]&0x7f)|uint64(buf[p2+1])<<7, p2+2
		} else if threeBytes(buf, p2, e2) {
			v, p2 = uint64(buf[p2]&0x7f)|uint64(buf[p2+1]&0x7f)<<7|uint64(buf[p2+2])<<14, p2+3
		} else if v, p2 = colUvarint(buf, p2, e2); p2 == 0 {
			return i, d.failColumn(2, i)
		}
		peer += unzigzag(v)
		if oneByte(buf, p3, e3) {
			v, p3 = uint64(buf[p3]), p3+1
		} else if twoBytes(buf, p3, e3) {
			v, p3 = uint64(buf[p3]&0x7f)|uint64(buf[p3+1])<<7, p3+2
		} else if threeBytes(buf, p3, e3) {
			v, p3 = uint64(buf[p3]&0x7f)|uint64(buf[p3+1]&0x7f)<<7|uint64(buf[p3+2])<<14, p3+3
		} else if v, p3 = colUvarint(buf, p3, e3); p3 == 0 {
			return i, d.failColumn(3, i)
		}
		tag += unzigzag(v)
		if oneByte(buf, p4, e4) {
			v, p4 = uint64(buf[p4]), p4+1
		} else if twoBytes(buf, p4, e4) {
			v, p4 = uint64(buf[p4]&0x7f)|uint64(buf[p4+1])<<7, p4+2
		} else if threeBytes(buf, p4, e4) {
			v, p4 = uint64(buf[p4]&0x7f)|uint64(buf[p4+1]&0x7f)<<7|uint64(buf[p4+2])<<14, p4+3
		} else if v, p4 = colUvarint(buf, p4, e4); p4 == 0 {
			return i, d.failColumn(4, i)
		}
		size += unzigzag(v)
		if oneByte(buf, p5, e5) {
			v, p5 = uint64(buf[p5]), p5+1
		} else if twoBytes(buf, p5, e5) {
			v, p5 = uint64(buf[p5]&0x7f)|uint64(buf[p5+1])<<7, p5+2
		} else if threeBytes(buf, p5, e5) {
			v, p5 = uint64(buf[p5]&0x7f)|uint64(buf[p5+1]&0x7f)<<7|uint64(buf[p5+2])<<14, p5+3
		} else if v, p5 = colUvarint(buf, p5, e5); p5 == 0 {
			return i, d.failColumn(5, i)
		}
		tStart += unzigzag(v)
		if oneByte(buf, p6, e6) {
			v, p6 = uint64(buf[p6]), p6+1
		} else if twoBytes(buf, p6, e6) {
			v, p6 = uint64(buf[p6]&0x7f)|uint64(buf[p6+1])<<7, p6+2
		} else if threeBytes(buf, p6, e6) {
			v, p6 = uint64(buf[p6]&0x7f)|uint64(buf[p6+1]&0x7f)<<7|uint64(buf[p6+2])<<14, p6+3
		} else if v, p6 = colUvarint(buf, p6, e6); p6 == 0 {
			return i, d.failColumn(6, i)
		}
		dur += unzigzag(v)
		ev.Kind, ev.Comm, ev.Ctx = key.kind, key.comm, key.ctx
		ev.Rank, ev.Peer, ev.Tag = int32(rank), int32(peer), int32(tag)
		ev.Size, ev.TStart, ev.TEnd = size, tStart, tStart+dur
		fn(ev)
	}
	return count, nil
}

// oneByte, twoBytes and threeBytes are the read ladder of dispatchColumns,
// each asked only after the one before it said no: whether the uvarint at
// buf[pos] ends in its first, second or third byte inside the column that
// ends at end. Nearly every delta of a steady stream is one of those three
// widths; the predicates inline and the reads are written out at each call
// site, while colUvarint, the general read, does not inline.
func oneByte(buf []byte, pos, end int) bool    { return pos < end && buf[pos] < 0x80 }
func twoBytes(buf []byte, pos, end int) bool   { return pos+1 < end && buf[pos+1] < 0x80 }
func threeBytes(buf []byte, pos, end int) bool { return pos+2 < end && buf[pos+2] < 0x80 }

// colUvarint reads the uvarint at buf[pos:end] — what is left of one
// column — and returns it with the position behind it, or position 0 (no
// column starts inside the pack header) when the varint is cut off by the
// column's end or overflows 64 bits.
func colUvarint(buf []byte, pos, end int) (uint64, int) {
	v, n := binary.Uvarint(buf[pos:end])
	if n <= 0 {
		return 0, 0
	}
	return v, pos + n
}
