package vmpi

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Stream block payloads are the largest per-operation allocations in the
// system: the paper's configuration moves ≈1 MB packs at GB/s rates, and
// leaving every block to the garbage collector makes the collector the
// simulator's bottleneck long before the event queue is. The pool below
// recycles payload buffers across writers and readers — the same
// per-message buffer-reuse discipline MPI streaming runtimes apply to keep
// the transport off the application's critical path.
//
// Ownership protocol: a producer obtains a buffer with GetBlock (or
// RecycledBlock, when it can do without on a miss), fills it,
// and hands it to Stream.Write; from that point the buffer belongs to the
// transport and then to the consumer that receives it in a Block. A
// consumer that is done with a block's bytes calls Block.Release to return
// the buffer; a consumer that retains the bytes (e.g. posting them to an
// asynchronous analysis pipeline) simply never releases, and the buffer
// falls back to the garbage collector — reuse is an optimization, never an
// obligation.
//
// The pool is shared process-wide: it is safe under the parallel sweep
// runner, where many independent simulations run concurrently, because
// buffers carry no simulation identity.
var blockPool sync.Pool

// poolHits / poolMisses track pool effectiveness process-wide: a hit is a
// GetBlock served from a recycled buffer, a miss had to allocate (empty
// pool, or a recycled buffer too small for the requested size).
var (
	poolHits   atomic.Int64
	poolMisses atomic.Int64
)

// PoolCounters returns the process-wide pool hit and miss counts.
func PoolCounters() (hits, misses int64) {
	return poolHits.Load(), poolMisses.Load()
}

// RegisterPoolMetrics surfaces the shared block pool through a telemetry
// registry as callback gauges sampled at snapshot time (the pool is
// process-global, so it cannot be written through a per-run handle).
func RegisterPoolMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("vmpi.pool_hits", func() int64 { return poolHits.Load() })
	reg.GaugeFunc("vmpi.pool_misses", func() int64 { return poolMisses.Load() })
}

// RecycledBlock returns a pooled payload buffer of length n, or nil when
// the pool has none that large — for producers that can start without
// one (a pack builder grows its own storage as it fills, so a miss costs
// it nothing up front). The contents are NOT zeroed — recycled buffers
// carry stale bytes; callers that rely on zeroed storage (e.g. record
// padding) must clear it themselves.
func RecycledBlock(n int) []byte {
	if v := blockPool.Get(); v != nil {
		buf := *(v.(*[]byte))
		if cap(buf) >= n {
			poolHits.Add(1)
			return buf[:n]
		}
		// Too small for this stream's block size: drop it.
	}
	poolMisses.Add(1)
	return nil
}

// GetBlock returns a payload buffer of length n: a recycled one (stale
// bytes and all, see RecycledBlock) or, on a pool miss, a fresh one.
func GetBlock(n int) []byte {
	if buf := RecycledBlock(n); buf != nil {
		return buf
	}
	return make([]byte, n)
}

// PutBlock returns a buffer to the pool. The caller must not touch buf
// afterwards.
func PutBlock(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	blockPool.Put(&buf)
}

// Release returns the block's payload buffer to the shared pool and nils
// it. Call it only as the payload's final owner: after Release the bytes
// may be overwritten by any stream writer in the process. Releasing a
// payload-less block (size-only transfers) is a no-op.
func (b *Block) Release() {
	if b.Payload != nil {
		PutBlock(b.Payload)
		b.Payload = nil
	}
}
