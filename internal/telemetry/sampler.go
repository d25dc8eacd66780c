package telemetry

import (
	"time"

	"repro/internal/des"
)

// StreamChannel is the dedicated VMPI stream channel for meta-events.
// Data streams use low channel numbers (the profiled run's pipes); keeping
// telemetry on its own channel gives snapshots distinct wire tags so they
// never interleave with application blocks on a shared tag.
const StreamChannel = 9

// SnapshotBlockSize is the stream block size used for meta-event blocks:
// large enough for a few hundred instruments, small enough to recycle
// through the shared pack pool.
const SnapshotBlockSize = 16 << 10

// BlockWriter is the sink a Sampler writes encoded snapshots to. It is
// satisfied by *vmpi.Stream; declaring it here keeps telemetry free of a
// vmpi import (vmpi itself is instrumented by this package).
type BlockWriter interface {
	Write(payload []byte, size int64) error
}

// Sampler periodically packs a registry into binary meta-events on a
// stream. It is driven from the instrumented rank's own event flow (call
// Poll wherever convenient, e.g. per recorded event): sampling rides the
// simulation clock, so snapshot cadence is in virtual time like every
// other measurement in the engine. A nil Sampler no-ops.
type Sampler struct {
	reg    *Registry
	w      BlockWriter
	getBuf func(n int) []byte
	period des.Time
	next   des.Time
	seq    uint64
	source int32
}

// NewSampler builds a sampler that snapshots reg every period of virtual
// time and writes to w, stamping snapshots with the given source rank.
// Nil reg or w yields a nil (disabled) sampler; period <= 0 defaults to
// 10ms of virtual time.
func NewSampler(reg *Registry, w BlockWriter, period time.Duration, source int) *Sampler {
	if reg == nil || w == nil {
		return nil
	}
	if period <= 0 {
		period = 10 * time.Millisecond
	}
	return &Sampler{reg: reg, w: w, period: des.Time(period), source: int32(source)}
}

// SetBufferFunc installs the snapshot buffer source (e.g. the vmpi block
// pool), so steady-state sampling allocates nothing new. The function
// receives the capacity hint and returns a zero-length slice to append
// into; without one the sampler falls back to make.
func (s *Sampler) SetBufferFunc(f func(n int) []byte) {
	if s == nil {
		return
	}
	s.getBuf = f
}

// Poll emits a snapshot if at least one period of virtual time has passed
// since the last one. It returns the write error, which callers may
// ignore: a dead telemetry stream must never fail the run it observes.
func (s *Sampler) Poll(now des.Time) error {
	if s == nil || now < s.next {
		return nil
	}
	return s.Flush(now)
}

// Flush unconditionally emits a snapshot stamped with virtual time now.
func (s *Sampler) Flush(now des.Time) error {
	if s == nil {
		return nil
	}
	s.next = now + s.period
	var buf []byte
	if s.getBuf != nil {
		buf = s.getBuf(SnapshotBlockSize)
	}
	buf = s.reg.EncodeSnapshot(buf, s.seq, int64(now), s.source)
	s.seq++
	return s.w.Write(buf, int64(len(buf)))
}
