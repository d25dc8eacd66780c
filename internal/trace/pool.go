package trace

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Pack storage is recycled through one process-wide pool of power-of-two
// size classes, the way the paper's VMPI streams reuse a fixed set of
// buffers per endpoint: both pack builders grow from it and give back what
// they outgrow, and a pack's last owner — a stream reader that releases
// its block, the blackboard once the last entry that references a
// handed-over pack is released — puts it back. Buffers carry no
// simulation identity, so every simulation in the process shares it.
//
// Ownership: a buffer from GetBuffer is its caller's until passed on —
// written to a stream, handed to an analysis that recycles it, or put
// back; after PutBuffer any reader may see another pack's bytes. A lent
// buffer, one the caller keeps using, is never put and falls back to the
// garbage collector: reuse is an optimization, never an obligation.
// Pooled storage is stale, not zeroed.
const (
	// minClass is the floor class, 64 B: a pack header and a few events.
	minClass = 6
	// poolBudget bounds the bytes at rest in the pool; a buffer put past it
	// is left to the garbage collector.
	poolBudget = 64 << 20
)

// bufPool is a free list per size class. Every buffer in class c has a
// capacity of exactly 1<<c, so any buffer of its class serves a request:
// none is ever dropped for being too small for the next one.
type bufPool struct {
	mu   sync.Mutex
	free [64][][]byte
	held int

	hits, misses atomic.Int64
}

var pool = new(bufPool)

// GetBuffer returns pack storage of length n from the class covering n:
// its capacity is at least n and, above the 64 B floor, less than 2n.
func GetBuffer(n int) []byte { return pool.get(n) }

// PutBuffer returns buf's storage to the pool; the caller must not touch
// buf afterwards.
func PutBuffer(buf []byte) { pool.put(buf) }

// PoolCounters returns the process-wide pool counts: a hit is a GetBuffer
// served from recycled storage, a miss had to allocate.
func PoolCounters() (hits, misses int64) { return pool.hits.Load(), pool.misses.Load() }

func (p *bufPool) get(n int) []byte {
	c := max(minClass, bits.Len(uint(max(n, 1)-1)))
	p.mu.Lock()
	if k := len(p.free[c]) - 1; k >= 0 {
		buf := p.free[c][k]
		p.free[c][k] = nil
		p.free[c] = p.free[c][:k]
		p.held -= cap(buf)
		p.mu.Unlock()
		p.hits.Add(1)
		return buf[:n]
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return make([]byte, n, 1<<c)
}

func (p *bufPool) put(buf []byte) {
	// A buffer of odd capacity joins the class below it, trimmed to size.
	c := bits.Len(uint(cap(buf))) - 1
	if c < minClass {
		return
	}
	p.mu.Lock()
	if p.held+1<<c <= poolBudget {
		p.free[c] = append(p.free[c], buf[:0:1<<c])
		p.held += 1 << c
	}
	p.mu.Unlock()
}
