package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"slices"
	"testing"
)

// TestPackBuilderReuseAllocationFree pins the recycling contract: a builder
// that is Reset into the buffer its previous Take returned runs the
// fill → take → reset cycle with zero allocations.
func TestPackBuilderReuseAllocationFree(t *testing.T) {
	b := NewPackBuilder(1, 0, 64, 4096)
	ev := sampleEvent(3)
	allocs := testing.AllocsPerRun(50, func() {
		for !b.Add(&ev) {
		}
		buf := b.Take()
		if buf == nil {
			t.Error("Take returned nil for a full pack")
		}
		b.Reset(buf)
	})
	if allocs != 0 {
		t.Errorf("recycled pack cycle allocated %.1f objects per run, want 0", allocs)
	}
}

// TestPackBuilderV2ReuseAllocationFree pins the same recycling contract
// for the v2 builder: after the dictionary index and column scratch have
// warmed up, the fill → take → reset cycle allocates nothing.
func TestPackBuilderV2ReuseAllocationFree(t *testing.T) {
	b := NewPackBuilderV2(1, 0, 64, 4096)
	events := make([]Event, 8)
	for i := range events {
		events[i] = fig14ishEvent(i)
	}
	// Warm-up: size the column scratch, dictionary and output buffer.
	i := 0
	for !b.Add(&events[i%len(events)]) {
		i++
	}
	b.Reset(b.Take())
	allocs := testing.AllocsPerRun(50, func() {
		j := 0
		for !b.Add(&events[j%len(events)]) {
			j++
		}
		buf := b.Take()
		if buf == nil {
			t.Error("Take returned nil for a full pack")
		}
		b.Reset(buf)
	})
	if allocs != 0 {
		t.Errorf("recycled v2 pack cycle allocated %.1f objects per run, want 0", allocs)
	}
}

// TestPackReaderAllocationFree pins the zero-copy decode contract: once
// the decoder's dictionary scratch is sized, iterating self-contained packs
// (v1, v2) allocates nothing per event — or per pack.
func TestPackReaderAllocationFree(t *testing.T) {
	packs := make([][]byte, 2)
	for vi, version := range []int{PackV1, PackV2} {
		b, err := NewBuilder(version, 1, 0, 64, 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			ev := fig14ishEvent(i)
			b.Add(&ev)
		}
		packs[vi] = b.Take()
	}
	var r StreamDecoder
	// Warm-up sizes the dictionary scratch.
	if err := r.Init(packs[1]); err != nil {
		t.Fatal(err)
	}
	var sum int64
	allocs := testing.AllocsPerRun(50, func() {
		for _, p := range packs {
			if err := r.Init(p); err != nil {
				t.Error(err)
				return
			}
			for r.Next() {
				sum += r.ev.Size
			}
			if r.err != nil {
				t.Error(r.err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("reused decode loop allocated %.1f objects per run, want 0", allocs)
	}
	_ = sum
}

// TestPackBuilderDeclaredRecordSize: a v1 pack declares its record size
// and writes none of the padding. Built in a dirty recycled buffer, a pack
// of n events with declared records of 256 bytes holds 24+48n bytes,
// models 24+256n (BlockSize), fills at the count the declared size allows
// and round-trips with the declared size in its header.
func TestPackBuilderDeclaredRecordSize(t *testing.T) {
	const recordSize, packBytes = 256, PackHeaderSize + 10*256 + 255
	b := NewPackBuilder(1, 0, recordSize, packBytes)
	b.Reset(bytes.Repeat([]byte{0xAB}, b.CapBytes()))
	var want []Event
	for full := false; !full; {
		ev := sampleEvent(len(want))
		want = append(want, ev)
		full = b.Add(&ev)
	}
	pack := b.Take()
	n := len(want)
	if n != 10 || len(pack) != PackHeaderSize+MinRecordSize*n || BlockSize(pack) != int64(PackHeaderSize+recordSize*n) {
		t.Fatalf("%d events in %d bytes modelled as %d; want 10 in %d modelled as %d",
			n, len(pack), BlockSize(pack), PackHeaderSize+MinRecordSize*10, PackHeaderSize+recordSize*10)
	}
	h, evs, err := decodePack(pack)
	if err != nil {
		t.Fatal(err)
	}
	if h.RecordSize != recordSize || h.Count != n || !slices.Equal(evs, want) {
		t.Fatalf("decoded header %+v and %d events, want record size %d and the %d events built", h, len(evs), recordSize, n)
	}
	// Any other payload weighs its length.
	v3 := NewPackBuilderV3(1, 0, recordSize, packBytes)
	v3.Add(&want[0])
	if p := v3.Take(); BlockSize(p) != int64(len(p)) || BlockSize(nil) != 0 {
		t.Fatal("BlockSize of a non-v1 payload is not its length")
	}
}

// TestPackBuilderV3ReuseAllocationFree pins the recycling contract for
// the v3 builder: once the persistent dictionary and column scratch are
// warm, the fill → take → reset cycle allocates nothing — the stream
// dictionary is the whole point, so it must not cost garbage per pack.
func TestPackBuilderV3ReuseAllocationFree(t *testing.T) {
	b := NewPackBuilderV3(1, 0, 64, 4096)
	events := make([]Event, 8)
	for i := range events {
		events[i] = fig14ishEvent(i)
	}
	// Warm-up: intern the dictionary, size the column scratch and output.
	i := 0
	for !b.Add(&events[i%len(events)]) {
		i++
	}
	b.Reset(b.Take())
	allocs := testing.AllocsPerRun(50, func() {
		j := 0
		for !b.Add(&events[j%len(events)]) {
			j++
		}
		buf := b.Take()
		if buf == nil {
			t.Error("Take returned nil for a full pack")
		}
		b.Reset(buf)
	})
	if allocs != 0 {
		t.Errorf("recycled v3 pack cycle allocated %.1f objects per run, want 0", allocs)
	}
}

// TestStreamDecoderFusedAllocationFree pins the fused decode→dispatch
// contract: once the decoder's dictionary is warm, DecodeDispatch moves
// events from wire bytes into the fold callback with zero allocations —
// no materialized records, no intermediate slices.
func TestStreamDecoderFusedAllocationFree(t *testing.T) {
	b := NewPackBuilderV3(1, 0, 64, 1<<12)
	packs := make([][]byte, 0, 8)
	for i := 0; len(packs) < 4; i++ {
		ev := fig14ishEvent(i)
		if b.Add(&ev) {
			packs = append(packs, b.Take())
			b.Reset(nil)
		}
	}
	var d StreamDecoder
	var sum int64
	fold := func(e *Event) { sum += e.Size }
	// Warm-up sizes the persistent dictionary.
	if _, err := d.DecodeDispatch(packs[0], fold); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, p := range packs[1:] {
			if _, err := d.DecodeDispatch(p, fold); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if allocs != 0 {
		t.Errorf("fused decode dispatched with %.1f allocations per run, want 0", allocs)
	}
	_ = sum
}

// goldenPackV1 spells the v1 wire format out independently of the
// builder: the 24-byte header declaring recordSize, then fixed
// little-endian 48-byte records.
func goldenPackV1(appID uint32, srcRank int32, recordSize int, evs []Event) []byte {
	le := binary.LittleEndian
	out := make([]byte, PackHeaderSize+len(evs)*48)
	le.PutUint32(out[0:], 0x544d5056)
	le.PutUint32(out[4:], appID)
	le.PutUint32(out[8:], uint32(srcRank))
	le.PutUint32(out[12:], uint32(len(evs)))
	le.PutUint32(out[16:], uint32(recordSize))
	for i, e := range evs {
		rec := out[PackHeaderSize+i*48:]
		rec[0] = byte(e.Kind)
		le.PutUint32(rec[4:], uint32(e.Rank))
		le.PutUint32(rec[8:], uint32(e.Peer))
		le.PutUint32(rec[12:], uint32(e.Tag))
		le.PutUint32(rec[16:], e.Comm)
		le.PutUint32(rec[20:], e.Ctx)
		le.PutUint64(rec[24:], uint64(e.Size))
		le.PutUint64(rec[32:], uint64(e.TStart))
		le.PutUint64(rec[40:], uint64(e.TEnd))
	}
	return out
}

// TestPackBuilderGoldenBytes pins the bytes on the wire for the three
// kinds of storage a v1 pack can be built in: fresh and never grown,
// grown past the first allocation, and a dirty recycled block. A full
// pack's storage is recyclable: Reset adopts it.
func TestPackBuilderGoldenBytes(t *testing.T) {
	const recordSize, capBytes = 256, 1 << 20
	build := func(b *PackBuilder, n int) ([]byte, []byte) {
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = sampleEvent(i)
			b.Add(&evs[i])
		}
		return b.Take(), goldenPackV1(9, 3, recordSize, evs)
	}
	dirty := make([]byte, capBytes)
	for i := range dirty {
		dirty[i] = 0xAB
	}
	recycled := NewPackBuilder(9, 3, recordSize, capBytes)
	recycled.Reset(dirty)
	for _, c := range []struct {
		name string
		b    *PackBuilder
		n    int
	}{
		{"fresh", NewPackBuilder(9, 3, recordSize, capBytes), 10},
		{"grown", NewPackBuilder(9, 3, recordSize, capBytes), 2 * packInitBytes / MinRecordSize},
		{"full", NewPackBuilder(9, 3, recordSize, capBytes), (capBytes - PackHeaderSize) / recordSize},
		{"recycled", recycled, 2 * packInitBytes / MinRecordSize},
	} {
		got, want := build(c.b, c.n)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d-event pack differs from the golden encoding", c.name, c.n)
		}
		if c.name == "full" && cap(got) < c.b.CapBytes() {
			t.Errorf("full pack buffer has cap %d, want at least CapBytes %d (recyclable)", cap(got), c.b.CapBytes())
		}
	}
}

// TestPackBuilderStorageFollowsFill: a builder never allocates (and so
// never zeroes) more than about twice what it fills, whatever the pack
// capacity — a rank that ships 100 KB in a 1 MiB-capacity pack must not
// pay for the megabyte.
func TestPackBuilderStorageFollowsFill(t *testing.T) {
	const recordSize, capBytes, events = 256, 1 << 20, 420
	ev := sampleEvent(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := NewPackBuilder(1, 0, recordSize, capBytes)
	for i := 0; i < events; i++ {
		b.Add(&ev)
	}
	pack := b.Take()
	runtime.ReadMemStats(&after)
	if limit := uint64(2*len(pack) + 2*packInitBytes); after.TotalAlloc-before.TotalAlloc > limit {
		t.Errorf("building a %d-byte pack allocated %d bytes, want at most %d", len(pack), after.TotalAlloc-before.TotalAlloc, limit)
	}
}

// TestPackBuilderV3StorageFollowsFill: a column builder, v2 or v3, that owns
// no output buffer allocates for the pack it has, not for the pack capacity
// — a rank that ships ten events in a 1 MiB-capacity pack must not zero the
// megabyte — and what it allocates carries the next pack of that size too.
func TestPackBuilderV3StorageFollowsFill(t *testing.T) {
	const capBytes, events = 1 << 20, 10
	for _, b := range []*ColumnBuilder{NewPackBuilderV2(1, 0, 64, capBytes), NewPackBuilderV3(1, 0, 64, capBytes)} {
		fill := func() {
			for i := 0; i < events; i++ {
				ev := fig14ishEvent(i)
				b.Add(&ev)
			}
		}
		fill() // warm: the dictionary and the column scratch are the builder's
		b.Take()
		fill()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pack := b.Take()
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(pack)); got > limit {
			t.Errorf("v%d: taking a %d-byte pack allocated %d bytes, want at most %d", b.version, len(pack), got, limit)
		}
		if cap(pack) > 4*len(pack) {
			t.Errorf("v%d: a %d-byte pack sits in %d bytes of storage", b.version, len(pack), cap(pack))
		}
		b.Reset(pack)
		fill()
		if allocs := testing.AllocsPerRun(1, func() { b.Take() }); allocs != 0 {
			t.Errorf("v%d: the next pack of the same size did not fit the recycled buffer (%.0f allocations)", b.version, allocs)
		}
	}
}

// TestColumnBuilderGoldenBytes pins the bytes the v2 and v3 builders put on
// the wire to what they emitted before a change to the builder, over two
// streams with recycled output buffers throughout. The mixed stream (pinned
// at d7fb1da, the commit before the two builders became one type) walks
// every branch of the fill → take → reset cycle: a steady low-entropy
// stretch, a high-entropy stretch whose packs close on encoded size before
// the logical capacity is reached, and packs discarded by Reset without
// Take (v3 rolls its dictionary delta back). The many-keys stream (pinned
// at dc65841, before the dictionary map became an open-addressed index)
// revisits 200 call sites at random, so the index grows and collides, and
// discards packs while the stream dictionary is still growing.
func TestColumnBuilderGoldenBytes(t *testing.T) {
	const recordSize, capBytes = MinRecordSize, 4096
	const logicalCap = (capBytes - PackHeaderSize) / recordSize
	// splitmix64: the same sequence on every toolchain.
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	mixed := make([]Event, 0, 900)
	for i := 0; i < 400; i++ {
		mixed = append(mixed, fig14ishEvent(i))
	}
	for i := 0; i < 300; i++ {
		mixed = append(mixed, Event{
			Kind: Kind(next() % uint64(KindCount)), Rank: int32(next()), Peer: int32(next()), Tag: int32(next()),
			Comm: uint32(next()), Ctx: uint32(next()), Size: int64(next()), TStart: int64(next()), TEnd: int64(next()),
		})
	}
	for i := 0; i < 200; i++ {
		mixed = append(mixed, fig14ishEvent(400+i))
	}
	sites := make([]kctKey, 200)
	for i := range sites {
		sites[i] = kctKey{kind: Kind(next() % uint64(KindCount)), comm: uint32(next() % 4), ctx: uint32(next() >> (next() % 64))}
	}
	many := make([]Event, 900)
	for i := range many {
		ev := fig14ishEvent(i)
		k := sites[next()%uint64(len(sites))]
		ev.Kind, ev.Comm, ev.Ctx = k.kind, k.comm, k.ctx
		many[i] = ev
	}
	for _, c := range []struct {
		name     string
		version  int
		events   []Event
		discard  [2]int // events at which Reset drops the pack so far
		minEarly int    // packs that must close on encoded size
		rollBack bool   // both discards must drop dictionary entries
		want     string
	}{
		{"mixed-v2", PackV2, mixed, [2]int{250, 500}, 3, false, "eef6058d1d420da834c56d9e0db6e7e743645137d4b2a2cdc45620b19953d86c"},
		{"mixed-v3", PackV3, mixed, [2]int{250, 500}, 3, false, "5abf2e835e83dc19eace0a405c2d383c22d4f5ad255c0a77d60e15da4f01e102"},
		{"many-keys-v2", PackV2, many, [2]int{130, 520}, 0, true, "cc8bfb6847fd2aff4f1d82500cd33ab65ef8b29f77e2ed55f74db07f125e2755"},
		{"many-keys-v3", PackV3, many, [2]int{130, 520}, 0, true, "f663105ec2bebea317c89ddc083937c667dac819b0f51f7b6af62816c6d2b03d"},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, err := NewBuilder(c.version, 9, 3, recordSize, capBytes)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			packs, early, rolled := 0, 0, 0
			ship := func() {
				n := b.Count()
				pack := b.Take()
				if len(pack) > capBytes {
					t.Fatalf("pack %d is %d bytes, capacity %d", packs, len(pack), capBytes)
				}
				if n < logicalCap {
					early++
				}
				var lp [4]byte
				binary.LittleEndian.PutUint32(lp[:], uint32(len(pack)))
				h.Write(lp[:])
				h.Write(pack)
				packs++
				b.Reset(pack)
			}
			for i := range c.events {
				if i == c.discard[0] || i == c.discard[1] {
					// Mid-pack discard: the events so far in this pack are
					// dropped.
					n := len(b.(*ColumnBuilder).dict)
					b.Reset(nil)
					if len(b.(*ColumnBuilder).dict) < n {
						rolled++
					}
				}
				if b.Add(&c.events[i]) {
					ship()
				}
			}
			ship()
			if early < c.minEarly {
				t.Errorf("%d of %d packs closed before their logical capacity, want the encoded-size bound to fire", early, packs)
			}
			if c.rollBack && rolled < 2 {
				t.Errorf("%d of 2 discards dropped dictionary entries", rolled)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("%d packs hash to %s, want %s", packs, got, c.want)
			}
		})
	}
}
