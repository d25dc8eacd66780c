package analysis

import (
	"math"
	"math/rand"
	"testing"
)

// The wait-state module's channel index held to a plain map: the same
// puts, the same gets, and an iteration that yields every key once.

// checkIndex compares x with the model m record by record and in both
// directions, and requires insertion order in x.recs.
func checkIndex(t *testing.T, x *chanIndex, m map[chanKey]*chanQueues, order []chanKey) {
	t.Helper()
	if len(x.recs) != len(m) || len(order) != len(m) {
		t.Fatalf("index holds %d records, model %d (%d inserted)", len(x.recs), len(m), len(order))
	}
	seen := make(map[chanKey]bool, len(m))
	for j, q := range x.recs {
		if seen[q.key] {
			t.Fatalf("iteration yields %+v twice", q.key)
		}
		seen[q.key] = true
		if q.key != order[j] {
			t.Fatalf("record %d is %+v, inserted %+v", j, q.key, order[j])
		}
		if m[q.key] != q {
			t.Fatalf("record %+v is %p, model %p", q.key, q, m[q.key])
		}
	}
	for k, q := range m {
		if got := x.get(k); got != q {
			t.Fatalf("get(%+v) = %p, model %p", k, got, q)
		}
	}
}

// meanProbe is the mean number of slots a get of a present key reads.
func meanProbe(x *chanIndex) float64 {
	mask := len(x.slots) - 1
	total := 0
	for _, q := range x.recs {
		i := int(q.key.hash(x.seed)) & mask
		for n := 1; ; n++ {
			if x.slots[i] == q {
				total += n
				break
			}
			i = (i + 1) & mask
		}
	}
	return float64(total) / float64(len(x.recs))
}

// TestChanIndexMatchesMap drives random puts and gets, over a key space
// small enough to repeat keys and with negative ranks and tags, through
// the index and a map side by side.
func TestChanIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var x chanIndex
		m := map[chanKey]*chanQueues{}
		var order []chanKey
		small := func() int32 { return int32(rng.Intn(9) - 3) }
		for op := 0; op < 3000; op++ {
			k := chanKey{src: small(), dst: small(), tag: small(), comm: uint32(rng.Intn(3))}
			if rng.Intn(3) == 0 {
				if got := x.get(k); got != m[k] {
					t.Fatalf("seed %d op %d: get(%+v) = %p, model %p", seed, op, k, got, m[k])
				}
				continue
			}
			if m[k] == nil {
				q := &chanQueues{key: k}
				x.put(q)
				m[k] = q
				order = append(order, k)
			}
		}
		checkIndex(t, &x, m, order)
	}
}

// TestChanIndexStructuredKeys fills one index per set of keys a real run
// or a hostile client produces — one rank pair under tags 0..50 000,
// keys that differ only in their high bits, negative ranks and tags — and
// requires every key found once and short probes: the seeded hash has to
// spread keys that a fixed mix of the low bits would pile up.
func TestChanIndexStructuredKeys(t *testing.T) {
	sets := map[string]func(i int) chanKey{
		"one pair, tags 0..50000": func(i int) chanKey { return chanKey{src: 3, dst: 7, tag: int32(i), comm: 1} },
		"high bits of src":        func(i int) chanKey { return chanKey{src: int32(i) << 16, dst: 1, tag: 0, comm: 1} },
		"high bits of comm":       func(i int) chanKey { return chanKey{src: 1, dst: 2, tag: 0, comm: uint32(i) << 16} },
		"high bits of every field": func(i int) chanKey {
			v := int32(i) << 16
			return chanKey{src: v, dst: v, tag: v, comm: uint32(v)}
		},
		"negative ranks and tags": func(i int) chanKey {
			return chanKey{src: -int32(i % 224), dst: -1, tag: -int32(i / 224), comm: math.MaxUint32}
		},
	}
	for name, key := range sets {
		t.Run(name, func(t *testing.T) {
			var x chanIndex
			m := map[chanKey]*chanQueues{}
			var order []chanKey
			for i := 0; i <= 50_000; i++ {
				k := key(i)
				if m[k] != nil {
					t.Fatalf("the set repeats %+v", k)
				}
				q := &chanQueues{key: k}
				x.put(q)
				m[k] = q
				order = append(order, k)
			}
			checkIndex(t, &x, m, order)
			if absent := (chanKey{src: 5, dst: 5, tag: -7, comm: 9}); x.get(absent) != nil {
				t.Fatalf("get of absent %+v found a record", absent)
			}
			probe := meanProbe(&x)
			t.Logf("%d keys in %d slots: mean probe %.2f", len(x.recs), len(x.slots), probe)
			if probe > 2.5 {
				t.Errorf("mean probe %.2f over %d keys, want ≤ 2.5 at a load of at most one half", probe, len(x.recs))
			}
		})
	}
}

// TestChanIndexSeedPerTable: two tables hash the same key differently, so
// a key set that collides in one does not collide in every table.
func TestChanIndexSeedPerTable(t *testing.T) {
	var a, b chanIndex
	k := chanKey{src: 1, dst: 2, tag: 3, comm: 4}
	a.put(&chanQueues{key: k})
	b.put(&chanQueues{key: k})
	if a.seed == b.seed {
		t.Fatalf("two tables drew the same seed %#x", a.seed)
	}
}
