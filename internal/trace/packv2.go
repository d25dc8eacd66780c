// Pack wire format v2: per-pack column encoding with delta+varint fields
// and a small dictionary for repeated (Kind, Comm, Ctx) triples.
//
// The v1 format ships each event as a fixed-layout record (48 bytes plus
// context padding). Within one pack, almost every field is monotone or
// near-constant: timestamps advance by small increments, ranks and
// communicators repeat, call sites cycle through a handful of contexts.
// v2 exploits that: events are split into columns, each column stores
// per-event deltas as zigzag varints, and the (Kind, Comm, Ctx) triple —
// the per-call context — is interned in a per-pack dictionary so repeated
// call sites cost one small index instead of 9+ bytes. On the streaming
// workloads of Figure 14 this cuts bytes per event by 4-10x, which is
// exactly the "measurements reduction" axis the paper optimizes: stream
// throughput is bytes-bound on the interconnect, so fewer bytes per event
// is more events per second for the same NIC.
//
// Wire layout (all integers little-endian, varints per encoding/binary):
//
//	offset 0  magic       uint32  = 0x324d5056 ("VPM2")
//	       4  appID       uint32
//	       8  srcRank     uint32
//	      12  count       uint32  events in the pack
//	      16  recordSize  uint32  logical v1 record size (accounting)
//	      20  bodyLen     uint32  encoded bytes after the header
//	      24  body:
//	          uvarint dictLen, then dictLen entries of
//	              kind (1 byte), comm (uvarint), ctx (uvarint)
//	          7 columns, each uvarint colBytes followed by colBytes bytes:
//	              0  dict index per event        (uvarint)
//	              1  rank delta                  (zigzag varint)
//	              2  peer delta                  (zigzag varint)
//	              3  tag delta                   (zigzag varint)
//	              4  size delta                  (zigzag varint)
//	              5  tstart delta                (zigzag varint)
//	              6  duration (tEnd-tStart) delta (zigzag varint)
//
// Every delta chain starts from 0. Deltas are zigzag-encoded (not plain
// uvarint) so the format round-trips arbitrary event tensors — monotone
// streams pay one extra bit per field for that safety.
//
// A v2 pack carries the same events as the v1 pack of the same capacity
// (the builder fills by logical bytes, not encoded bytes), so pack
// boundaries, flush cadence and per-pack event counts are unchanged; only
// the bytes on the wire shrink. When the input is high-entropy (randomized
// fields, no repetition) v2 can exceed the logical size; the builder then
// closes the pack early so the encoded pack never exceeds its capacity.
package trace

import (
	"encoding/binary"
	"fmt"
)

const (
	packMagicV2 = 0x324d5056 // "VPM2" little-endian

	// numColumns is the fixed column count of the v2 body.
	numColumns = 7

	// maxVarint64 is the worst-case encoded size of one 64-bit varint.
	maxVarint64 = binary.MaxVarintLen64

	// worstPerEventV2 bounds the encoded growth of one Add: a fresh
	// dictionary entry (1 + 2×10), one index varint and six delta varints,
	// plus one byte of potential growth for each column-length prefix and
	// the dictionary-length prefix.
	worstPerEventV2 = (1 + 2*maxVarint64) + 7*maxVarint64 + (numColumns + 1)
)

// PackVersion identifies a pack wire format.
const (
	// PackV1 is the fixed-record format ("the C structure is directly
	// sent").
	PackV1 = 1
	// PackV2 is the delta+varint column format.
	PackV2 = 2
)

// zigzag maps signed deltas onto unsigned varint space (small magnitudes
// of either sign stay small).
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// kctKey is a dictionary key: one (Kind, Comm, Ctx) triple.
type kctKey struct {
	kind Kind
	comm uint32
	ctx  uint32
}

// ColumnBuilder accumulates events into packs of a column format, v2 or v3
// as its constructor fixed: the two share every column and differ only in
// the dictionary's lifetime, which ends at Take for v2 and never for v3
// (the decoder's initColumns draws the same line). It mirrors the
// PackBuilder contract (Add/Take/Reset/CapBytes/Count/Len) so the online
// recorder can hold either behind the Builder interface. The dictionary is
// a slice with an open-addressed index over it, and it, the column scratch
// and the output buffer are reused across packs: the steady-state fill →
// take → reset cycle allocates nothing. The zero value is not usable — use
// NewPackBuilderV2 or NewPackBuilderV3.
type ColumnBuilder struct {
	// Fixed by the constructor: the format's magic and version, the worst
	// encoded growth of one Add, and whether the dictionary outlives a pack.
	magic      uint32
	version    int
	worst      int
	persistent bool

	appID      uint32
	srcRank    int32
	recordSize int
	capBytes   int

	// dict[:base] was shipped in earlier packs (v3; base stays 0 for v2);
	// dict[base:] is this pack's dictionary section, dictBytes its encoded
	// size. Reset without Take rolls the section back, so a discarded pack
	// never desynchronizes a stream dictionary. slots indexes dict by
	// linear probing: a slot holds a dict position plus one, 0 is empty, the
	// length is a power of two and at most half the slots are taken.
	dict      []kctKey
	slots     []uint32
	base      int
	dictBytes int

	cols  [numColumns][]byte
	count int

	prevRank, prevPeer, prevTag   int64
	prevSize, prevTStart, prevDur int64

	// out is the output buffer adopted by Reset; Take assembles into it when
	// large enough and otherwise trades it for a pool buffer that is.
	out []byte
}

// NewPackBuilderV2 creates a v2 builder with the same capacity semantics
// as NewPackBuilder: the pack is closed when another logical (v1-sized)
// record would no longer fit in packBytes, so v1 and v2 packs carry
// identical event sets and differ only in encoded size. recordSize below
// MinRecordSize is raised to it; packBytes is raised to fit at least one
// record.
func NewPackBuilderV2(appID uint32, srcRank int32, recordSize, packBytes int) *ColumnBuilder {
	b := &ColumnBuilder{magic: packMagicV2, version: PackV2, worst: worstPerEventV2}
	return b.init(appID, srcRank, recordSize, packBytes)
}

// NewPackBuilderV3 creates a v3 builder — v2's capacity semantics, so pack
// boundaries are format-independent — whose (Kind, Comm, Ctx) dictionary
// outlives the take → reset cycle: entries are interned once per stream and
// each Take ships only the entries its pack introduced.
func NewPackBuilderV3(appID uint32, srcRank int32, recordSize, packBytes int) *ColumnBuilder {
	b := &ColumnBuilder{magic: packMagicV3, version: PackV3, worst: worstPerEventV3, persistent: true}
	return b.init(appID, srcRank, recordSize, packBytes)
}

func (b *ColumnBuilder) init(appID uint32, srcRank int32, recordSize, packBytes int) *ColumnBuilder {
	recordSize = max(recordSize, MinRecordSize)
	// A pack must be able to hold one record, and one worst-case event.
	packBytes = max(packBytes, PackHeaderSize+recordSize, PackHeaderSize+b.worst)
	b.appID, b.srcRank, b.recordSize, b.capBytes = appID, srcRank, recordSize, packBytes
	b.slots = make([]uint32, 64)
	return b
}

// Version reports the builder's wire format.
func (b *ColumnBuilder) Version() int { return b.version }

// CapBytes returns the maximum encoded pack size (also the logical pack
// capacity, matching the v1 builder's).
func (b *ColumnBuilder) CapBytes() int { return b.capBytes }

// RecordSize returns the logical per-record size in bytes.
func (b *ColumnBuilder) RecordSize() int { return b.recordSize }

// Count returns the number of events in the pack under construction.
func (b *ColumnBuilder) Count() int { return b.count }

// Len returns the current encoded size of the pack under construction.
func (b *ColumnBuilder) Len() int { return b.encodedLen() }

// LogicalLen returns the v1-equivalent size of the pack under
// construction: what the same events would occupy in the v1 format.
func (b *ColumnBuilder) LogicalLen() int { return PackHeaderSize + b.count*b.recordSize }

// DictLen returns the dictionary size including this pack's pending
// entries (diagnostics and tests).
func (b *ColumnBuilder) DictLen() int { return len(b.dict) }

func (b *ColumnBuilder) encodedLen() int {
	n := PackHeaderSize + uvarintLen(uint64(len(b.dict)-b.base)) + b.dictBytes
	if b.persistent {
		n += uvarintLen(uint64(b.base))
	}
	for i := range b.cols {
		n += uvarintLen(uint64(len(b.cols[i]))) + len(b.cols[i])
	}
	return n
}

// lenBound bounds encodedLen from above without walking the columns: no
// length prefix — dictionary base and count, seven column lengths — is
// wider than that of the column bytes plus the dictionary entries.
func (b *ColumnBuilder) lenBound() int {
	n := len(b.cols[0]) + len(b.cols[1]) + len(b.cols[2]) + len(b.cols[3]) + len(b.cols[4]) + len(b.cols[5]) + len(b.cols[6])
	return PackHeaderSize + b.dictBytes + n + (numColumns+2)*uvarintLen(uint64(n+len(b.dict)))
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// resetState clears per-pack accumulation and drops the dictionary entries
// no pack has shipped — all of them for v2, whose base never moves.
func (b *ColumnBuilder) resetState() {
	b.count = 0
	// Emptying the slots in the reverse of insertion order leaves each
	// remaining probe sequence as it was before the dropped entries came.
	for i := len(b.dict) - 1; i >= b.base; i-- {
		b.slots[b.slotOf(b.dict[i])] = 0
	}
	b.dict = b.dict[:b.base]
	b.dictBytes = 0
	for i := range b.cols {
		b.cols[i] = b.cols[i][:0]
	}
	b.prevRank, b.prevPeer, b.prevTag = 0, 0, 0
	b.prevSize, b.prevTStart, b.prevDur = 0, 0, 0
}

// Reset discards any pack under construction (a stream dictionary keeps
// only entries already shipped) and takes buf over, whatever its size, as
// output storage: Take trades it for a pool buffer only if the pack does
// not fit.
func (b *ColumnBuilder) Reset(buf []byte) {
	b.resetState()
	b.out = buf[:0]
}

// slotOf returns the slot holding k, or the empty slot that ends k's probe
// sequence when k is not in the dictionary. The probe starts from the high
// half of a multiplicative hash of all three fields.
func (b *ColumnBuilder) slotOf(k kctKey) uint32 {
	mask := uint32(len(b.slots) - 1)
	s := uint32((uint64(k.comm)<<32|uint64(k.ctx)^uint64(k.kind)<<56)*0x9e3779b97f4a7c15>>32) & mask
	for b.slots[s] != 0 && b.dict[b.slots[s]-1] != k {
		s = (s + 1) & mask
	}
	return s
}

// intern adds k, found in no slot and ending its probe sequence at s, to
// this pack's dictionary section and returns what its slot now holds.
func (b *ColumnBuilder) intern(k kctKey, s uint32) uint32 {
	b.dict = append(b.dict, k)
	b.dictBytes += 1 + uvarintLen(uint64(k.comm)) + uvarintLen(uint64(k.ctx))
	b.slots[s] = uint32(len(b.dict))
	if 2*len(b.dict) > len(b.slots) {
		// Re-placing the entries in dictionary order keeps the table what
		// inserting them one by one would have built, as resetState needs.
		b.slots = make([]uint32, 2*len(b.slots))
		for i, k := range b.dict {
			b.slots[b.slotOf(k)] = uint32(i + 1)
		}
	}
	return uint32(len(b.dict))
}

// Add appends an event and reports whether the pack is now full — either
// another logical record would overflow the capacity (the v1 condition,
// keeping pack boundaries identical across formats) or, for high-entropy
// input, another worst-case encoded event would. The exact encoded length
// is computed only once lenBound comes within a worst-case event of the
// capacity.
func (b *ColumnBuilder) Add(e *Event) bool {
	key := kctKey{kind: e.Kind, comm: e.Comm, ctx: e.Ctx}
	s := b.slotOf(key)
	slot := b.slots[s]
	if slot == 0 {
		slot = b.intern(key, s)
	}
	b.cols[0] = binary.AppendUvarint(b.cols[0], uint64(slot-1))

	b.cols[1] = binary.AppendUvarint(b.cols[1], zigzag(int64(e.Rank)-b.prevRank))
	b.prevRank = int64(e.Rank)
	b.cols[2] = binary.AppendUvarint(b.cols[2], zigzag(int64(e.Peer)-b.prevPeer))
	b.prevPeer = int64(e.Peer)
	b.cols[3] = binary.AppendUvarint(b.cols[3], zigzag(int64(e.Tag)-b.prevTag))
	b.prevTag = int64(e.Tag)
	b.cols[4] = binary.AppendUvarint(b.cols[4], zigzag(e.Size-b.prevSize))
	b.prevSize = e.Size
	b.cols[5] = binary.AppendUvarint(b.cols[5], zigzag(e.TStart-b.prevTStart))
	b.prevTStart = e.TStart
	dur := e.TEnd - e.TStart
	b.cols[6] = binary.AppendUvarint(b.cols[6], zigzag(dur-b.prevDur))
	b.prevDur = dur

	b.count++
	return PackHeaderSize+(b.count+1)*b.recordSize > b.capBytes ||
		b.lenBound()+b.worst > b.capBytes && b.encodedLen()+b.worst > b.capBytes
}

// Take finalizes the pack under construction and returns its encoded
// bytes (nil if it holds no events), then starts a fresh pack reusing the
// column scratch; a v3 builder commits the pack's dictionary entries as
// shipped, and later packs reference them by index alone. The returned
// slice is the builder's output buffer, now the caller's; the next Take
// draws from the pool unless a buffer is handed to Reset first.
func (b *ColumnBuilder) Take() []byte {
	if b.count == 0 {
		return nil
	}
	n := b.encodedLen()
	out := b.out
	if cap(out) < n {
		// Storage follows the fill, as in PackBuilder.grow: the pool class
		// covering the pack, and the outgrown buffer goes back to the pool.
		PutBuffer(out)
		out = GetBuffer(n)
	}
	out = out[:PackHeaderSize]
	binary.LittleEndian.PutUint32(out[0:], b.magic)
	binary.LittleEndian.PutUint32(out[4:], b.appID)
	binary.LittleEndian.PutUint32(out[8:], uint32(b.srcRank))
	binary.LittleEndian.PutUint32(out[12:], uint32(b.count))
	binary.LittleEndian.PutUint32(out[16:], uint32(b.recordSize))
	binary.LittleEndian.PutUint32(out[20:], uint32(n-PackHeaderSize))
	if b.persistent {
		// v3 says how many entries earlier packs shipped; the count that
		// follows is then this pack's additions, not v2's whole dictionary.
		out = binary.AppendUvarint(out, uint64(b.base))
	}
	out = binary.AppendUvarint(out, uint64(len(b.dict)-b.base))
	for _, k := range b.dict[b.base:] {
		out = append(out, byte(k.kind))
		out = binary.AppendUvarint(out, uint64(k.comm))
		out = binary.AppendUvarint(out, uint64(k.ctx))
	}
	for i := range b.cols {
		out = binary.AppendUvarint(out, uint64(len(b.cols[i])))
		out = append(out, b.cols[i]...)
	}
	if b.persistent {
		b.base = len(b.dict)
	}
	b.out = nil
	b.resetState()
	return out
}

// Builder is the encoding side of a pack codec: the v1 PackBuilder and the
// ColumnBuilder of v2 and v3 satisfy it, so the online recorder treats the
// wire format as a per-stream configuration.
type Builder interface {
	// Add appends an event and reports whether the pack is full.
	Add(e *Event) bool
	// Take finalizes and returns the encoded pack (nil when empty).
	Take() []byte
	// Reset starts a fresh pack, adopting buf as storage when possible.
	Reset(buf []byte)
	// CapBytes returns the maximum encoded pack size.
	CapBytes() int
	// Count returns the events in the pack under construction.
	Count() int
	// Len returns the current encoded size of the pack under construction.
	Len() int
	// RecordSize returns the logical per-record size.
	RecordSize() int
	// Version returns the wire format (PackV1, PackV2, or PackV3).
	Version() int
}

// Version reports the v1 builder's wire format (Builder interface).
func (b *PackBuilder) Version() int { return PackV1 }

// NewBuilder creates a pack builder for the given wire format version
// (0 defaults to v1).
func NewBuilder(version int, appID uint32, srcRank int32, recordSize, packBytes int) (Builder, error) {
	switch version {
	case 0, PackV1:
		return NewPackBuilder(appID, srcRank, recordSize, packBytes), nil
	case PackV2:
		return NewPackBuilderV2(appID, srcRank, recordSize, packBytes), nil
	case PackV3:
		return NewPackBuilderV3(appID, srcRank, recordSize, packBytes), nil
	}
	return nil, fmt.Errorf("trace: unknown pack format version %d", version)
}
