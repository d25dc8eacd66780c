package trace

import (
	"encoding/binary"
	"testing"
)

// packSeeds is the checked-in corpus the pack fuzzers start from, and
// the fixed inputs of the decoder differential: valid packs of every wire
// format, truncations, corrupt counts and lengths, bare magics.
func packSeeds() [][]byte {
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, append([]byte(nil), b...)) }
	// Valid v1 pack.
	b1 := NewPackBuilder(1, 2, 48, 1<<12)
	for i := 0; i < 8; i++ {
		ev := sampleEvent(i)
		b1.Add(&ev)
	}
	v1 := b1.Take()
	add(v1)
	// Valid v2 pack.
	b2 := NewPackBuilderV2(1, 2, 48, 1<<12)
	for i := 0; i < 8; i++ {
		ev := fig14ishEvent(i)
		b2.Add(&ev)
	}
	v2 := b2.Take()
	add(v2)
	// Valid v3 packs: a stream opener (dictionary delta) and a follow-up
	// (empty delta, nonzero base) so the fuzzer mutates both shapes of
	// the dictionary prefix.
	b3 := NewPackBuilderV3(1, 2, 48, 1<<12)
	for i := 0; i < 8; i++ {
		ev := fig14ishEvent(i)
		b3.Add(&ev)
	}
	v3 := append([]byte(nil), b3.Take()...)
	add(v3)
	for i := 0; i < 8; i++ {
		ev := fig14ishEvent(i)
		b3.Add(&ev)
	}
	add(b3.Take())
	// Truncated variants.
	add(v1[:len(v1)/2])
	add(v2[:len(v2)/2])
	add(v2[:PackHeaderSize])
	add(v3[:len(v3)/2])
	// Corrupt counts and body lengths.
	for _, seed := range [][]byte{v1, v2, v3} {
		for _, at := range []int{12, 16, 20} {
			mut := append([]byte(nil), seed...)
			binary.LittleEndian.PutUint32(mut[at:], 0xFFFFFFFF)
			add(mut)
		}
	}
	// Bare magics, short buffers.
	add([]byte{0x56, 0x50, 0x4d, 0x54})
	add([]byte{0x56, 0x50, 0x4d, 0x32})
	add([]byte{0x56, 0x50, 0x4d, 0x33})
	add(nil)
	// A well-formed audit pack: a valid header that is not an event pack.
	add(EncodeAuditPack(1, 0, []AuditEntry{{Kind: KindSend, Shed: 3, Kept: 5}}))
	return seeds
}

// FuzzDecodePack throws arbitrary bytes at every decode entry point. The
// contract under fuzzing is purely defensive: malformed input of either
// wire format must produce an error, never a panic, an over-read, or an
// event count above the header's claim. A v1 pack may not claim more
// records than its bytes hold at the 48-byte stride, whatever record size
// it declares.
func FuzzDecodePack(f *testing.F) {
	for _, seed := range packSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := PeekHeader(data)
		if err == nil && (h.bodyLen > len(data)-PackHeaderSize ||
			h.Version == PackV1 && h.Count > (len(data)-PackHeaderSize)/MinRecordSize ||
			h.Version == PackAudit && PackHeaderSize+h.Count*h.RecordSize > len(data)) {
			t.Fatalf("PeekHeader accepted a pack claiming more than its %d bytes", len(data))
		}
		if _, err := PeekHeaderV1(data); err == nil && h.Version != PackV1 {
			t.Fatal("PeekHeaderV1 accepted a non-v1 pack")
		}
		hd, events, err := decodePack(data)
		if err == nil && len(events) != hd.Count {
			t.Fatalf("decodePack returned %d events for a header claiming %d", len(events), hd.Count)
		}
		if err == nil && (hd.Version == PackV3 || hd.Version == PackAudit) {
			t.Fatalf("stateless decode accepted a pack of format %d", hd.Version)
		}
		// The stream decoder must hold the same defensive contract, both
		// cold (empty dictionary) and after absorbing the input once —
		// a hostile dictionary delta must never panic, over-read, or
		// yield more events than the header claims.
		var d StreamDecoder
		for pass := 0; pass < 2; pass++ {
			if err := d.Init(data); err != nil {
				continue
			}
			count := 0
			for d.Next() {
				count++
				if count > d.h.Count {
					t.Fatal("StreamDecoder yielded more events than the header claims")
				}
			}
		}
	})
}
