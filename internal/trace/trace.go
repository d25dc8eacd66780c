// Package trace defines the instrumentation event model: fixed-layout
// binary event records and the packs that batch them for streaming.
//
// The paper deliberately keeps the event representation simple — "the C
// structure is directly sent" — in contrast to structured trace formats
// like OTF2. This package mirrors that: an Event is a fixed-size
// little-endian record, a pack is a small header followed by consecutive
// records, and encoding is a straight byte copy with no compression or
// framing beyond the pack header.
//
// A pack declares a record size beyond the 48 bytes an event occupies to
// model the call context the paper attaches to it (call sites, stack
// digests). The padding is declared, not written: BlockSize charges it in
// every bandwidth and cost computation, so the instrumentation data volume
// stays a first-class experimental parameter.
package trace

import (
	"encoding/binary"
	"fmt"
)

// Kind identifies the instrumented call an event records.
type Kind uint8

// Event kinds: the MPI calls the instrumentation layer intercepts, plus the
// POSIX I/O calls the paper's density-map module covers.
const (
	KindInvalid Kind = iota
	KindSend
	KindRecv
	KindIsend
	KindIrecv
	KindWait
	KindWaitall
	KindSendrecv
	KindProbe
	KindBarrier
	KindBcast
	KindReduce
	KindAllreduce
	KindGather
	KindAllgather
	KindAlltoall
	KindInit
	KindFinalize
	KindPosixOpen
	KindPosixRead
	KindPosixWrite
	KindPosixClose
	kindCount // sentinel
)

// KindCount is the number of kind values including the invalid zero —
// the size a dense per-kind table must have to be indexed by any Kind.
const KindCount = int(kindCount)

var kindNames = [...]string{
	KindInvalid:    "invalid",
	KindSend:       "MPI_Send",
	KindRecv:       "MPI_Recv",
	KindIsend:      "MPI_Isend",
	KindIrecv:      "MPI_Irecv",
	KindWait:       "MPI_Wait",
	KindWaitall:    "MPI_Waitall",
	KindSendrecv:   "MPI_Sendrecv",
	KindProbe:      "MPI_Iprobe",
	KindBarrier:    "MPI_Barrier",
	KindBcast:      "MPI_Bcast",
	KindReduce:     "MPI_Reduce",
	KindAllreduce:  "MPI_Allreduce",
	KindGather:     "MPI_Gather",
	KindAllgather:  "MPI_Allgather",
	KindAlltoall:   "MPI_Alltoall",
	KindInit:       "MPI_Init",
	KindFinalize:   "MPI_Finalize",
	KindPosixOpen:  "open",
	KindPosixRead:  "read",
	KindPosixWrite: "write",
	KindPosixClose: "close",
}

// kindStrings spells every Kind value, built once: its name, or Kind(n)
// for a value without one.
var kindStrings = func() (s [256]string) {
	for k := range s {
		s[k] = fmt.Sprintf("Kind(%d)", k)
		if k < len(kindNames) && kindNames[k] != "" {
			s[k] = kindNames[k]
		}
	}
	return s
}()

// String returns the instrumented call's name.
func (k Kind) String() string { return kindStrings[k] }

// Kinds returns every valid event kind, in declaration order.
func Kinds() []Kind {
	out := make([]Kind, 0, int(kindCount)-1)
	for k := KindSend; k < kindCount; k++ {
		out = append(out, k)
	}
	return out
}

// IsP2P reports whether the kind is a point-to-point data movement
// (something the topology module turns into a matrix entry).
func (k Kind) IsP2P() bool {
	switch k {
	case KindSend, KindRecv, KindIsend, KindIrecv, KindSendrecv:
		return true
	}
	return false
}

// IsOutgoingP2P reports whether the kind moves data away from the caller.
func (k Kind) IsOutgoingP2P() bool {
	switch k {
	case KindSend, KindIsend, KindSendrecv:
		return true
	}
	return false
}

// IsCollective reports whether the kind is a collective operation.
func (k Kind) IsCollective() bool {
	switch k {
	case KindBarrier, KindBcast, KindReduce, KindAllreduce, KindGather, KindAllgather, KindAlltoall:
		return true
	}
	return false
}

// IsWait reports whether the kind is a completion-wait call.
func (k Kind) IsWait() bool { return k == KindWait || k == KindWaitall }

// IsPosix reports whether the kind is a POSIX I/O call.
func (k Kind) IsPosix() bool {
	switch k {
	case KindPosixOpen, KindPosixRead, KindPosixWrite, KindPosixClose:
		return true
	}
	return false
}

// Event is one instrumented call. Times are virtual nanoseconds since the
// start of the run.
type Event struct {
	// Kind is the instrumented call.
	Kind Kind
	// Rank is the caller's rank within its (virtualized) application world.
	Rank int32
	// Peer is the remote rank for point-to-point calls, the root for
	// rooted collectives, or -1.
	Peer int32
	// Tag is the message tag, or -1.
	Tag int32
	// Comm identifies the communicator.
	Comm uint32
	// Ctx is a call-site/context identifier.
	Ctx uint32
	// Size is the payload byte count moved by the call (0 when n/a).
	Size int64
	// TStart and TEnd bound the call in virtual nanoseconds.
	TStart int64
	// TEnd is the call's completion time.
	TEnd int64
}

// Duration returns the call's duration in nanoseconds.
func (e *Event) Duration() int64 { return e.TEnd - e.TStart }

// MaxWindowOverlap caps how many windows of a sliding geometry cover one
// instant (WindowOverlap): an event folds into every window covering its
// start. The register frame, the partial decoder and
// Pipeline.EnableWindows each refuse a wider geometry, so no client makes
// one event cost thousands of window folds.
const MaxWindowOverlap = 64

// WindowOverlap returns how many windows of the given width and slide
// (0 < slide <= width) cover one instant: ⌈width/slide⌉.
func WindowOverlap(width, slide int64) int64 { return (width-1)/slide + 1 }

// MinRecordSize is the exact byte size of the binary event structure and
// the stride of v1 records; a pack's RecordSize may declare more to model
// richer per-event context.
const MinRecordSize = 48

// encodeRecord writes the event into buf (len >= MinRecordSize).
func encodeRecord(buf []byte, e *Event) {
	buf[0] = byte(e.Kind)
	buf[1], buf[2], buf[3] = 0, 0, 0
	binary.LittleEndian.PutUint32(buf[4:], uint32(e.Rank))
	binary.LittleEndian.PutUint32(buf[8:], uint32(e.Peer))
	binary.LittleEndian.PutUint32(buf[12:], uint32(e.Tag))
	binary.LittleEndian.PutUint32(buf[16:], e.Comm)
	binary.LittleEndian.PutUint32(buf[20:], e.Ctx)
	binary.LittleEndian.PutUint64(buf[24:], uint64(e.Size))
	binary.LittleEndian.PutUint64(buf[32:], uint64(e.TStart))
	binary.LittleEndian.PutUint64(buf[40:], uint64(e.TEnd))
}

// decodeRecord reads an event from buf (len >= MinRecordSize).
func decodeRecord(buf []byte, e *Event) {
	e.Kind = Kind(buf[0])
	e.Rank = int32(binary.LittleEndian.Uint32(buf[4:]))
	e.Peer = int32(binary.LittleEndian.Uint32(buf[8:]))
	e.Tag = int32(binary.LittleEndian.Uint32(buf[12:]))
	e.Comm = binary.LittleEndian.Uint32(buf[16:])
	e.Ctx = binary.LittleEndian.Uint32(buf[20:])
	e.Size = int64(binary.LittleEndian.Uint64(buf[24:]))
	e.TStart = int64(binary.LittleEndian.Uint64(buf[32:]))
	e.TEnd = int64(binary.LittleEndian.Uint64(buf[40:]))
}

// Pack framing.
const (
	packMagic = 0x544d5056 // "VPMT" little-endian
	// PackHeaderSize is the encoded pack header size in bytes; a v1 pack
	// occupies PackHeaderSize + Count*MinRecordSize bytes.
	PackHeaderSize = 24
)

// Header describes a decoded pack.
type Header struct {
	// AppID identifies the instrumented application (blackboard level).
	AppID uint32
	// SrcRank is the producing process's rank within its application.
	SrcRank int32
	// Count is the number of event records in the pack.
	Count int
	// RecordSize is the declared per-record size (>= MinRecordSize) for
	// every version: the logical record the pack stands in for, what
	// BlockSize and compression ratios charge, never an on-wire stride.
	RecordSize int
	// Version is the pack wire format (PackV1, PackV2, or PackV3).
	Version int

	// bodyLen is the v2/v3 encoded body size after the header (0 for v1).
	bodyLen int
}

// PackBuilder accumulates events into a bounded binary pack. When the pack
// is full the caller takes the encoded bytes (Take) and streams them; the
// builder then starts a fresh pack, drawing its storage from the pack pool
// on the next Add — or adopting a full-capacity buffer handed to Reset. The
// storage follows the fill: it starts at packInitBytes and doubles up to
// the pack capacity, each step a pool buffer, and the buffer a step moves
// out of goes back to the pool. Records are written at the MinRecordSize
// stride; the declared record size only bounds how many fit the pack. The
// zero value is not usable — use NewPackBuilder.
type PackBuilder struct {
	appID      uint32
	srcRank    int32
	recordSize int
	capBytes   int // storage of a full pack: its records at the 48-byte stride
	buf        []byte
	count      int
}

// packInitBytes is the storage a pack starts in; it doubles from there up
// to the builder's capacity.
const packInitBytes = 64 << 10

// NewPackBuilder creates a builder producing packs of at most packBytes
// modelled bytes (BlockSize) with the given declared record size. recordSize
// below MinRecordSize is raised to it; packBytes, to fit one record.
func NewPackBuilder(appID uint32, srcRank int32, recordSize, packBytes int) *PackBuilder {
	recordSize = max(recordSize, MinRecordSize)
	records := max(packBytes-PackHeaderSize, recordSize) / recordSize
	return &PackBuilder{
		appID:      appID,
		srcRank:    srcRank,
		recordSize: recordSize,
		capBytes:   PackHeaderSize + records*MinRecordSize,
	}
}

// Reset discards any pack under construction and starts a fresh one in
// buf, taking its storage over. A buf too small for a full pack goes back
// to the pool and the next Add grows from the pool instead, so Reset(nil)
// is simply "start over".
func (b *PackBuilder) Reset(buf []byte) {
	b.count = 0
	b.buf = nil
	if cap(buf) < b.capBytes {
		PutBuffer(buf)
		return
	}
	b.buf = buf[:PackHeaderSize]
}

// CapBytes returns the maximum encoded (not modelled) pack size, i.e. the
// buffer size a recycled Reset buffer must have to be adopted.
func (b *PackBuilder) CapBytes() int { return b.capBytes }

// Count returns the number of events in the pack under construction.
func (b *PackBuilder) Count() int { return b.count }

// Len returns the current encoded size of the pack under construction.
func (b *PackBuilder) Len() int {
	if b.buf == nil {
		return PackHeaderSize
	}
	return len(b.buf)
}

// Add appends an event and reports whether the pack is now full (no room
// for another record).
func (b *PackBuilder) Add(e *Event) bool {
	off := b.Len()
	need := off + MinRecordSize
	if need > cap(b.buf) {
		b.grow(need)
	}
	b.buf = b.buf[:need]
	encodeRecord(b.buf[off:], e)
	b.count++
	return need+MinRecordSize > b.capBytes
}

// grow moves the pack under construction into pooled storage of at least
// need bytes — packInitBytes first, then doubling, stopping at the class
// covering capBytes so a full pack's buffer can be adopted by Reset — and
// returns the storage it moves out of to the pool.
func (b *PackBuilder) grow(need int) {
	n := min(max(2*cap(b.buf), packInitBytes), b.capBytes)
	n = max(n, need) // past capBytes only if the caller keeps adding to a full pack
	buf := GetBuffer(n)[:b.Len()]
	copy(buf, b.buf)
	PutBuffer(b.buf)
	b.buf = buf
}

// Take finalizes the pack under construction and returns its encoded bytes
// (nil if it holds no events), then starts a fresh pack. The next pack's
// storage is drawn lazily, so a caller with a buffer to recycle can Reset
// into it first.
func (b *PackBuilder) Take() []byte {
	if b.count == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(b.buf[0:], packMagic)
	binary.LittleEndian.PutUint32(b.buf[4:], b.appID)
	binary.LittleEndian.PutUint32(b.buf[8:], uint32(b.srcRank))
	binary.LittleEndian.PutUint32(b.buf[12:], uint32(b.count))
	binary.LittleEndian.PutUint32(b.buf[16:], uint32(b.recordSize))
	binary.LittleEndian.PutUint32(b.buf[20:], 0)
	out := b.buf
	b.buf = nil
	b.count = 0
	return out
}

// PeekHeader decodes just the pack header (for dispatching without a full
// decode), accepting both wire formats.
func PeekHeader(buf []byte) (Header, error) {
	if len(buf) < PackHeaderSize {
		return Header{}, fmt.Errorf("trace: pack of %d bytes is shorter than the header", len(buf))
	}
	var version int
	switch binary.LittleEndian.Uint32(buf) {
	case packMagic:
		version = PackV1
	case packMagicV2:
		version = PackV2
	case packMagicV3:
		version = PackV3
	case packMagicAudit:
		version = PackAudit
	default:
		return Header{}, fmt.Errorf("trace: bad pack magic %#x", binary.LittleEndian.Uint32(buf))
	}
	h := Header{
		AppID:      binary.LittleEndian.Uint32(buf[4:]),
		SrcRank:    int32(binary.LittleEndian.Uint32(buf[8:])),
		Count:      int(binary.LittleEndian.Uint32(buf[12:])),
		RecordSize: int(binary.LittleEndian.Uint32(buf[16:])),
		Version:    version,
	}
	if version == PackAudit {
		// Audit packs carry fixed ledger entries, not event records, so the
		// record-size floor does not apply; the stride must match exactly.
		if h.RecordSize != auditEntrySize {
			return Header{}, fmt.Errorf("trace: audit pack record size %d, want %d", h.RecordSize, auditEntrySize)
		}
		if h.Count > (len(buf)-PackHeaderSize)/auditEntrySize {
			return Header{}, fmt.Errorf("trace: audit pack truncated: %d bytes, header implies %d entries", len(buf), h.Count)
		}
		return h, nil
	}
	if h.RecordSize < MinRecordSize {
		return Header{}, fmt.Errorf("trace: record size %d below minimum %d", h.RecordSize, MinRecordSize)
	}
	if version == PackV2 || version == PackV3 {
		h.bodyLen = int(binary.LittleEndian.Uint32(buf[20:]))
		if h.bodyLen > len(buf)-PackHeaderSize {
			return Header{}, fmt.Errorf("trace: v%d pack truncated: %d bytes, header implies %d", version, len(buf), PackHeaderSize+h.bodyLen)
		}
		// Every event costs at least one byte per column, so an honest
		// count is bounded by the body size; this keeps decoders from
		// pre-allocating for a hostile 32-bit count. (The v3 dictionary
		// delta only adds body bytes, so the same bound holds.)
		if h.Count > h.bodyLen/numColumns {
			return Header{}, fmt.Errorf("trace: v%d pack claims %d events in a %d-byte body", version, h.Count, h.bodyLen)
		}
		return h, nil
	}
	// Division keeps the bound overflow-free for a hostile 32-bit Count.
	if h.Count > (len(buf)-PackHeaderSize)/MinRecordSize {
		return Header{}, fmt.Errorf("trace: pack truncated: %d bytes, header implies %d records", len(buf), h.Count)
	}
	return h, nil
}

// BlockSize returns the modelled size of a stream block carrying payload:
// for a v1 pack its header plus Count records of the declared RecordSize,
// for any other payload its length.
func BlockSize(payload []byte) int64 {
	le := binary.LittleEndian
	if len(payload) < PackHeaderSize || le.Uint32(payload) != packMagic {
		return int64(len(payload))
	}
	return PackHeaderSize + int64(le.Uint32(payload[12:]))*int64(le.Uint32(payload[16:]))
}
