package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// decodeBoth feeds one pack to two decoders that share a history — one
// through DecodeDispatch, one through an Init/Next loop — and fails unless
// both deliver the same events in the same order, count the same events
// before an error, and end on the same error (or none). It returns that
// count and error.
func decodeBoth(t *testing.T, what string, dispatch, iterate *StreamDecoder, pack []byte) (int, error) {
	t.Helper()
	var got, want []Event
	n, gotErr := dispatch.DecodeDispatch(pack, func(e *Event) { got = append(got, *e) })
	wantErr := iterate.Init(pack)
	for iterate.Next() {
		want = append(want, iterate.ev)
	}
	if wantErr == nil {
		wantErr = iterate.err
	}
	if n != len(got) {
		t.Fatalf("%s: DecodeDispatch returned %d after %d calls", what, n, len(got))
	}
	if len(got) != len(want) {
		t.Fatalf("%s: DecodeDispatch delivered %d events, Next %d (errors %v / %v)", what, len(got), len(want), gotErr, wantErr)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d: DecodeDispatch %+v, Next %+v", what, i, got[i], want[i])
		}
	}
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: DecodeDispatch error %v, Next error %v", what, gotErr, wantErr)
	}
	if len(dispatch.dict) != len(iterate.dict) {
		t.Fatalf("%s: stream dictionaries diverged: %d vs %d entries", what, len(dispatch.dict), len(iterate.dict))
	}
	if dispatch.Next() {
		t.Fatalf("%s: Next yields an event after DecodeDispatch consumed the pack", what)
	}
	return n, gotErr
}

// randomStreamEvent draws events that exercise every varint width and
// both delta signs: ranks, peers and tags that jump both ways, sizes and
// stamps from one byte to the full 64 bits, and a call-site population
// that keeps growing so later packs still carry dictionary deltas.
func randomStreamEvent(rng *rand.Rand, i int) Event {
	wide := func() int64 {
		v := rng.Int63() >> uint(rng.Intn(63))
		if rng.Intn(2) == 0 {
			return -v
		}
		return v
	}
	ev := Event{
		Kind:   Kind(rng.Intn(256)),
		Rank:   int32(wide()),
		Peer:   int32(wide()),
		Tag:    int32(rng.Intn(5) - 2),
		Comm:   uint32(rng.Intn(3)),
		Ctx:    uint32(rng.Intn(4 + i/16)),
		Size:   wide(),
		TStart: wide(),
	}
	ev.TEnd = ev.TStart + wide()>>1
	return ev
}

// TestDecodeDispatchMatchesNext is the equivalence contract of the
// pack-local decode loop (DESIGN §13): on every input DecodeDispatch and
// the Next iterator are the same decoder.
func TestDecodeDispatchMatchesNext(t *testing.T) {
	t.Run("seeds", func(t *testing.T) {
		// One decoder pair sees the whole corpus in order, so later seeds
		// meet a warm dictionary (gaps, restarts) as well as a cold one.
		var warmA, warmB StreamDecoder
		for _, seed := range packSeeds() {
			var a, b StreamDecoder
			decodeBoth(t, "cold", &a, &b, seed)
			decodeBoth(t, "warm", &warmA, &warmB, seed)
		}
	})

	// A valid v2 and a valid v3 pack with multi-byte deltas, then every
	// way of cutting or bending them that still gets past the header.
	valid := map[string][]byte{}
	for name, version := range map[string]int{"v2": PackV2, "v3": PackV3} {
		b, err := NewBuilder(version, 1, 2, 48, 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(version)))
		for i := 0; i < 40; i++ {
			ev := fig14ishEvent(i)
			if i%5 == 0 {
				ev = randomStreamEvent(rng, i)
			}
			b.Add(&ev)
		}
		valid[name] = b.Take()
	}
	for name, pack := range valid {
		t.Run("truncate-"+name, func(t *testing.T) {
			for cut := 0; cut < len(pack); cut++ {
				var a, b StreamDecoder
				decodeBoth(t, "plain cut", &a, &b, pack[:cut])
				if cut < PackHeaderSize {
					continue
				}
				// The same cut with the header's body length made to agree,
				// so the damage is met inside the body, not at the header.
				mut := append([]byte(nil), pack[:cut]...)
				binary.LittleEndian.PutUint32(mut[20:], uint32(cut-PackHeaderSize))
				var c, d StreamDecoder
				decodeBoth(t, "cut with matching body length", &c, &d, mut)
			}
		})
		t.Run("bend-"+name, func(t *testing.T) {
			// More events claimed than the columns hold: every column runs
			// dry at the same event.
			mut := append([]byte(nil), pack...)
			binary.LittleEndian.PutUint32(mut[12:], binary.LittleEndian.Uint32(mut[12:])+1)
			var a, b StreamDecoder
			decodeBoth(t, "count+1", &a, &b, mut)
			// Every body byte in turn with its continuation bit flipped and
			// with all bits set: varints that run into the next value or off
			// the column's end, dictionary indices out of range, overflow.
			midPack := 0
			for at := PackHeaderSize; at < len(pack); at++ {
				for _, bend := range []byte{0x80, 0xff} {
					mut := append([]byte(nil), pack...)
					mut[at] ^= bend
					var a, b StreamDecoder
					if n, err := decodeBoth(t, "bent byte", &a, &b, mut); err != nil && n > 0 {
						midPack++
					}
				}
			}
			if midPack == 0 {
				t.Error("no bent pack failed after its first event: the in-loop checks were not reached")
			}
		})
	}

	t.Run("column-edges", func(t *testing.T) {
		for _, e := range columnEdgePacks() {
			var a, b StreamDecoder
			n, err := decodeBoth(t, e.name, &a, &b, e.pack)
			want := fmt.Sprintf("trace: pack column %d truncated at event %d", e.failCol, n)
			if e.failCol < 0 && err != nil || e.failCol >= 0 && (err == nil || err.Error() != want) {
				t.Errorf("%s: decoded %d events, error %v", e.name, n, err)
			}
		}
	})

	t.Run("random-streams", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			b3 := NewPackBuilderV3(1, 0, 48, 1<<10)
			b2 := NewPackBuilderV2(1, 0, 48, 1<<10)
			var a, b StreamDecoder
			packs := 0
			for i := 0; packs < 12; i++ {
				ev := randomStreamEvent(rng, i)
				if !b3.Add(&ev) {
					continue
				}
				decodeBoth(t, "v3 pack", &a, &b, b3.Take())
				packs++
				if packs%4 == 0 {
					// A v2 pack in the middle of the v3 stream must leave the
					// stream dictionary alone in both forms.
					for j := 0; ; j++ {
						if ev := randomStreamEvent(rng, j); b2.Add(&ev) {
							break
						}
					}
					decodeBoth(t, "interleaved v2 pack", &a, &b, b2.Take())
				}
			}
			if len(a.dict) < 8 {
				t.Fatalf("seed %d: stream dictionary only grew to %d entries", seed, len(a.dict))
			}
		}
	})
}

// edgePack is a v3 pack bent at one column's end, and the column whose
// read must fail (-1: the pack is valid).
type edgePack struct {
	name    string
	pack    []byte
	failCol int
}

// columnEdgePacks builds, for every column and for two- and three-byte
// varints, the three ways a multi-byte varint meets its column's end: it
// ends exactly there (valid), it ends one byte past it (its last byte
// opens the next column, or follows the body for the last column), or the
// column's last byte is a continuation byte. Column 0 reads index 0 spelled
// long; the delta columns read the widest value of each width.
func columnEdgePacks() []edgePack {
	var out []edgePack
	for c := 0; c < numColumns; c++ {
		for _, width := range []int{2, 3} {
			cont, last := byte(0xff), byte(0x7f)
			if c == 0 {
				cont, last = 0x80, 0x00
			}
			v := append(bytes.Repeat([]byte{cont}, width-1), last)
			for _, e := range []struct {
				name       string
				count      int
				col, spill []byte
				failCol    int
			}{
				{"exact", 1, v, nil, -1},
				{"one-past", 1, v[:width-1], v[width-1:], c},
				{"continuation-last", 2, append([]byte{0}, v[:width-1]...), nil, c},
			} {
				var cols [numColumns][]byte
				for i := range cols {
					cols[i] = make([]byte, e.count)
				}
				cols[c] = e.col
				var tail []byte
				if c+1 < numColumns {
					cols[c+1] = append(append([]byte(nil), e.spill...), cols[c+1]...)
				} else {
					tail = e.spill
				}
				// Base 0, one dictionary entry: (KindSend, comm 1, ctx 2).
				body := []byte{0, 1, byte(KindSend), 1, 2}
				for _, col := range cols {
					body = append(binary.AppendUvarint(body, uint64(len(col))), col...)
				}
				pack := make([]byte, PackHeaderSize)
				binary.LittleEndian.PutUint32(pack[0:], packMagicV3)
				binary.LittleEndian.PutUint32(pack[12:], uint32(e.count))
				binary.LittleEndian.PutUint32(pack[16:], MinRecordSize)
				binary.LittleEndian.PutUint32(pack[20:], uint32(len(body)))
				name := fmt.Sprintf("column %d, %d-byte varint, %s", c, width, e.name)
				out = append(out, edgePack{name, append(append(pack, body...), tail...), e.failCol})
			}
		}
	}
	return out
}

// FuzzDecodeDispatchMatchesNext holds the same contract over arbitrary
// bytes, cold and after the pair has absorbed the input once.
func FuzzDecodeDispatchMatchesNext(f *testing.F) {
	for _, seed := range packSeeds() {
		f.Add(seed)
	}
	for _, e := range columnEdgePacks() {
		f.Add(e.pack)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a, b StreamDecoder
		decodeBoth(t, "cold", &a, &b, data)
		decodeBoth(t, "warm", &a, &b, data)
	})
}
