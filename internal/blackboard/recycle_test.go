package blackboard

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestEntryRecycling pins the rule that lets the board reuse what it
// allocates: an entry the board made goes back to the pool at its last
// Release, so an op that keeps an input past its return Retains it, a
// derived entry holds its parent until its own last Release, and an entry
// the caller built is never reused.
func TestEntryRecycling(t *testing.T) {
	t.Run("retained input survives later posts", func(t *testing.T) {
		bb := New(Config{Workers: 2})
		defer bb.Close()
		ty := TypeID("recycle", "keep")
		var kept *Entry
		if err := bb.Register(KS{
			Name:          "keeper",
			Sensitivities: []Type{ty},
			Op: func(_ *Blackboard, in []*Entry) {
				if in[0].Payload == "first" {
					in[0].Retain()
					kept = in[0]
				}
			},
		}); err != nil {
			t.Fatal(err)
		}
		bb.Post(ty, 7, "first")
		bb.Drain()
		for i := 0; i < 1000; i++ {
			bb.Post(ty, int64(i), i)
		}
		bb.Drain()
		if kept == nil || kept.Type != ty || kept.Size != 7 || kept.Payload != "first" {
			t.Fatalf("retained entry reads %+v after 1000 more posts", kept)
		}
		if !kept.Release() {
			t.Fatal("the retained reference was not the last")
		}
		defer func() {
			if recover() == nil {
				t.Fatal("a second Release of a pooled entry must panic")
			}
		}()
		kept.Release()
	})

	t.Run("derived entry releases its parent once", func(t *testing.T) {
		bb := New(Config{Workers: 4})
		defer bb.Close()
		raw, cooked := TypeID("", "raw"), TypeID("recycle", "cooked")
		const n = 500
		var released [n]atomic.Int32
		var bad atomic.Int32
		if err := bb.Register(KS{
			Name:          "forward",
			Sensitivities: []Type{raw},
			Op: func(bb *Blackboard, in []*Entry) {
				bb.PostFrom(in[0], cooked, in[0].Size, in[0].Payload)
			},
		}); err != nil {
			t.Fatal(err)
		}
		if err := bb.Register(KS{
			Name:          "read",
			Sensitivities: []Type{cooked},
			Op: func(_ *Blackboard, in []*Entry) {
				if i := in[0].Payload.(int); released[i].Load() != 0 || in[0].Size != int64(i) {
					bad.Add(1)
				}
			},
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			bb.PostOwned(raw, int64(i), i, func(p any) { released[p.(int)].Add(1) })
		}
		bb.Drain()
		if bad.Load() != 0 {
			t.Fatalf("%d derived entries read a released or foreign parent", bad.Load())
		}
		for i := range released {
			if got := released[i].Load(); got != 1 {
				t.Fatalf("parent %d released %d times, want 1", i, got)
			}
		}
	})

	t.Run("caller-built entry is never reused", func(t *testing.T) {
		bb := New(Config{Workers: 2})
		defer bb.Close()
		ty := TypeID("recycle", "own")
		var mu sync.Mutex
		seen := map[*Entry]bool{}
		if err := bb.Register(KS{
			Name:          "watch",
			Sensitivities: []Type{ty},
			Op: func(_ *Blackboard, in []*Entry) {
				mu.Lock()
				seen[in[0]] = true
				mu.Unlock()
			},
		}); err != nil {
			t.Fatal(err)
		}
		mine := NewEntry(ty, 3, "mine")
		bb.PostEntry(mine)
		bb.Drain()
		mu.Lock()
		delete(seen, mine)
		mu.Unlock()
		for i := 0; i < 1000; i++ {
			bb.Post(ty, 1, i)
		}
		bb.Drain()
		if seen[mine] {
			t.Fatal("a post reused the caller-built entry")
		}
		if mine.Type != ty || mine.Size != 3 || mine.Payload != "mine" {
			t.Fatalf("caller-built entry was zeroed: %+v", mine)
		}
		defer func() {
			if recover() == nil {
				t.Fatal("a second Release of a freed entry must panic")
			}
		}()
		mine.Release()
	})
}
