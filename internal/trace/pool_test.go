package trace

import (
	"bytes"
	"math/rand"
	"testing"
)

// withPool runs fn with p as the process pack pool.
func withPool(p *bufPool, fn func()) {
	saved := pool
	pool = p
	defer func() { pool = saved }()
	fn()
}

// TestPoolClassSizing: a buffer from the pool has the length asked for and
// a capacity of at least n and, above the floor, less than 2n; below it,
// the floor class.
func TestPoolClassSizing(t *testing.T) {
	p := new(bufPool)
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 1<<minClass - 1, 1 << minClass, 1<<minClass + 1, 4 << 10, 64<<10 - 1, 64 << 10, 64<<10 + 1, 1 << 20, 3 << 20}
	for i := 0; i < 200; i++ {
		sizes = append(sizes, 1+rng.Intn(1<<20))
	}
	for _, n := range sizes {
		for _, buf := range [][]byte{p.get(n), p.get(n)} { // a fresh buffer, then a recycled one
			if len(buf) != n {
				t.Fatalf("get(%d) returned %d bytes", n, len(buf))
			}
			if n > 1<<minClass && (cap(buf) < n || cap(buf) >= 2*n) {
				t.Fatalf("get(%d) returned capacity %d, want [n, 2n)", n, cap(buf))
			}
			if n <= 1<<minClass && cap(buf) != 1<<minClass {
				t.Fatalf("get(%d) below the floor returned capacity %d, want %d", n, cap(buf), 1<<minClass)
			}
			p.put(buf)
		}
	}
}

// TestPoolKeepsEveryBuffer: a mixed sequence of small and large puts and
// gets never drops a buffer — each get of a class that holds one is a hit,
// whatever was asked for before — and an odd-sized buffer serves the class
// below its capacity. The old single pool dropped a 4 KiB tree flush buffer
// on the next 1 MiB request and served 4 KiB requests with a 1 MiB block.
func TestPoolKeepsEveryBuffer(t *testing.T) {
	p := new(bufPool)
	sizes := []int{4 << 10, 1 << 20, 100, 64 << 10, 4 << 10, 3 << 20, 1 << 20, 200 << 10}
	var bufs [][]byte
	for _, n := range sizes {
		bufs = append(bufs, make([]byte, n))
	}
	for _, buf := range bufs {
		p.put(buf)
	}
	// Largest first, then the small ones the old pool would have dropped.
	// An odd capacity serves its class, the power of two below it: the
	// 3 MiB buffer 2 MiB requests, 200 KiB 128 KiB ones, 100 B 64 B ones.
	for _, n := range []int{2 << 20, 1 << 20, 128 << 10, 1 << 20, 64 << 10, 4 << 10, 64, 4 << 10} {
		if buf := p.get(n); cap(buf) != n {
			t.Fatalf("get(%d) returned capacity %d", n, cap(buf))
		}
	}
	if hits, misses := p.hits.Load(), p.misses.Load(); hits != int64(len(sizes)) || misses != 0 {
		t.Errorf("%d puts then %d gets of their classes: %d hits, %d misses; want every get a hit", len(sizes), len(sizes), hits, misses)
	}
	// The classes are empty now, and the next get of each is a miss.
	if p.get(4 << 10); p.misses.Load() != 1 {
		t.Errorf("a get from an emptied class did not miss")
	}
}

// TestPoolBudget: the pool holds at most poolBudget bytes at rest; a
// buffer put past it is left to the garbage collector. (One buffer put
// again and again stands for distinct ones, to keep the test small.)
func TestPoolBudget(t *testing.T) {
	p := new(bufPool)
	const n = 8 << 20
	buf := make([]byte, n)
	for i := 0; i < poolBudget/n+2; i++ {
		p.put(buf)
	}
	if p.held != poolBudget || len(p.free[23]) != poolBudget/n {
		t.Errorf("pool holds %d bytes in %d buffers, want its budget %d", p.held, len(p.free[23]), poolBudget)
	}
	p.get(n)
	if p.held != poolBudget-n {
		t.Errorf("a hit left %d bytes held, want %d", p.held, poolBudget-n)
	}
}

// TestPoolWarmCycleZeroAllocs: once a class holds a buffer, a get/put
// cycle through the process pool allocates nothing.
func TestPoolWarmCycleZeroAllocs(t *testing.T) {
	PutBuffer(GetBuffer(64 << 10))
	PutBuffer(GetBuffer(4 << 10))
	allocs := testing.AllocsPerRun(100, func() {
		a := GetBuffer(64 << 10)
		b := GetBuffer(3 << 10)
		PutBuffer(a)
		PutBuffer(b)
	})
	if allocs != 0 {
		t.Errorf("a warm get/put cycle allocated %.1f objects, want 0", allocs)
	}
}

// TestPooledStorageBuildsIdenticalPacks: packs built in stale pooled
// storage — every buffer the builders draw filled with 0xAB — are
// byte-identical to the same packs built in fresh, zeroed storage: a v1
// pack with declared padding that grows through several classes, and a v3
// stream whose output buffers come from the pool at each Take.
func TestPooledStorageBuildsIdenticalPacks(t *testing.T) {
	const recordSize, capBytes = 256, 1 << 20
	build := func() [][]byte {
		var packs [][]byte
		v1 := NewPackBuilder(9, 3, recordSize, capBytes)
		v3 := NewPackBuilderV3(9, 3, recordSize, 8<<10)
		for i := 0; i < 2*packInitBytes/MinRecordSize; i++ {
			ev := fig14ishEvent(i)
			v1.Add(&ev)
			if v3.Add(&ev) {
				packs = append(packs, v3.Take())
			}
		}
		return append(packs, v1.Take(), v3.Take())
	}
	fresh := new(bufPool)
	var want [][]byte
	withPool(fresh, func() { want = build() })
	if fresh.hits.Load() != 0 {
		t.Fatal("the fresh build drew recycled storage")
	}

	dirty := new(bufPool)
	for c := minClass; c <= 20; c++ {
		// Every v3 Take draws a small buffer; the v1 pack one per doubling.
		n := 2
		if c <= 14 {
			n = 128
		}
		for i := 0; i < n; i++ {
			buf := bytes.Repeat([]byte{0xAB}, 1<<c)
			dirty.put(buf)
		}
	}
	var got [][]byte
	withPool(dirty, func() { got = build() })
	if dirty.misses.Load() != 0 || dirty.hits.Load() == 0 {
		t.Fatalf("the stale build allocated (%d hits, %d misses)", dirty.hits.Load(), dirty.misses.Load())
	}
	if len(got) != len(want) {
		t.Fatalf("%d packs from stale storage, %d from fresh", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("pack %d of %d differs when built in stale pooled storage", i, len(want))
		}
	}
}
