package tbon

import "testing"

// TestPlanShapes pins the tier layout for a spread of leaf counts,
// fan-ins, and depths: every tier is ceil(previous/fanin) wide except the
// top (forced to one root), locals are laid out tier-0 first, and the
// root is the last local.
func TestPlanShapes(t *testing.T) {
	cases := []struct {
		leaves, fanin, tiers int
		wantSizes            []int
	}{
		{leaves: 8, fanin: 4, tiers: 1, wantSizes: []int{1}},
		{leaves: 8, fanin: 4, tiers: 2, wantSizes: []int{2, 1}},
		{leaves: 16, fanin: 4, tiers: 2, wantSizes: []int{4, 1}},
		{leaves: 17, fanin: 4, tiers: 2, wantSizes: []int{5, 1}},
		{leaves: 64, fanin: 4, tiers: 3, wantSizes: []int{16, 4, 1}},
		{leaves: 3, fanin: 8, tiers: 2, wantSizes: []int{1, 1}},
		{leaves: 1, fanin: 2, tiers: 1, wantSizes: []int{1}},
		{leaves: 100, fanin: 16, tiers: 2, wantSizes: []int{7, 1}},
	}
	for _, c := range cases {
		p, err := NewPlan(c.leaves, c.fanin, c.tiers)
		if err != nil {
			t.Fatalf("NewPlan(%d,%d,%d): %v", c.leaves, c.fanin, c.tiers, err)
		}
		if len(p.Sizes) != len(c.wantSizes) {
			t.Fatalf("plan(%d,%d,%d): sizes %v, want %v", c.leaves, c.fanin, c.tiers, p.Sizes, c.wantSizes)
		}
		total := 0
		for i, n := range c.wantSizes {
			if p.Sizes[i] != n {
				t.Errorf("plan(%d,%d,%d): sizes %v, want %v", c.leaves, c.fanin, c.tiers, p.Sizes, c.wantSizes)
			}
			total += n
		}
		if p.Ranks() != total {
			t.Errorf("plan(%d,%d,%d): Ranks=%d, want %d", c.leaves, c.fanin, c.tiers, p.Ranks(), total)
		}
		if p.Root() != total-1 {
			t.Errorf("plan(%d,%d,%d): Root=%d, want %d", c.leaves, c.fanin, c.tiers, p.Root(), total-1)
		}
		if p.TierOf(p.Root()) != c.tiers-1 {
			t.Errorf("plan(%d,%d,%d): root tier %d, want %d", c.leaves, c.fanin, c.tiers, p.TierOf(p.Root()), c.tiers-1)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	for _, c := range []struct{ leaves, fanin, tiers int }{
		{0, 4, 1}, {8, 1, 1}, {8, 4, 0}, {-1, 4, 2},
	} {
		if _, err := NewPlan(c.leaves, c.fanin, c.tiers); err == nil {
			t.Errorf("NewPlan(%d,%d,%d): expected error", c.leaves, c.fanin, c.tiers)
		}
	}
}

// The downward views of a plan — the engine only ever asks upward (Parent,
// LeafParent and the upstream orders); the consistency tests invert those.

// ChildrenOf returns the local ranks of the aggregators in tier t-1 that
// report to the given tier-t node (empty for t == 0, whose children are
// leaves — see LeavesOf).
func (p *Plan) ChildrenOf(local int) []int {
	t := p.TierOf(local)
	if t == 0 {
		return nil
	}
	var out []int
	for j := 0; j < p.Sizes[t-1]; j++ {
		c := p.Local(t-1, j)
		if p.Parent(c) == local {
			out = append(out, c)
		}
	}
	return out
}

// LeavesOf returns the leaf analyzers that report to a tier-0 node.
func (p *Plan) LeavesOf(local int) []int {
	if p.TierOf(local) != 0 {
		return nil
	}
	var out []int
	for l := 0; l < p.leaves; l++ {
		if p.LeafParent(l) == local {
			out = append(out, l)
		}
	}
	return out
}

// TestPlanOutOfRange: an address outside the plan is a wiring bug and
// panics; the tier channels start at ChannelBase.
func TestPlanOutOfRange(t *testing.T) {
	p, err := NewPlan(10, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"Local tier":     func() { p.Local(2, 0) },
		"Local index":    func() { p.Local(0, p.Sizes[0]) },
		"TierOf high":    func() { p.TierOf(p.Ranks()) },
		"TierOf low":     func() { p.TierOf(-1) },
		"LeafParent":     func() { p.LeafParent(10) },
		"LeafParent low": func() { p.LeafParent(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	if Channel(0) != ChannelBase || Channel(2) != ChannelBase+2 {
		t.Errorf("Channel(0), Channel(2) = %d, %d", Channel(0), Channel(2))
	}
}

// TestPlanAddressing checks TierOf/IndexOf/Local round-trip for every
// local rank of several plans.
func TestPlanAddressing(t *testing.T) {
	for _, c := range []struct{ leaves, fanin, tiers int }{
		{8, 4, 1}, {16, 4, 2}, {64, 4, 3}, {100, 8, 2}, {37, 5, 3},
	} {
		p, err := NewPlan(c.leaves, c.fanin, c.tiers)
		if err != nil {
			t.Fatal(err)
		}
		for local := 0; local < p.Ranks(); local++ {
			tt, j := p.TierOf(local), p.IndexOf(local)
			if got := p.Local(tt, j); got != local {
				t.Fatalf("plan(%d,%d,%d): Local(TierOf,IndexOf)(%d) = %d", c.leaves, c.fanin, c.tiers, local, got)
			}
		}
	}
}

// TestPlanParentChildConsistency verifies that the parent and child
// accessors describe the same tree: every non-root node appears exactly
// once among its parent's children, leaf assignment partitions the
// leaves, and every parent chain reaches the root in tier-distance
// steps.
func TestPlanParentChildConsistency(t *testing.T) {
	for _, c := range []struct{ leaves, fanin, tiers int }{
		{8, 4, 2}, {17, 4, 2}, {64, 4, 3}, {63, 4, 3}, {9, 2, 4}, {5, 8, 1},
	} {
		p, err := NewPlan(c.leaves, c.fanin, c.tiers)
		if err != nil {
			t.Fatal(err)
		}
		seenLeaf := make(map[int]bool)
		for j := 0; j < p.Sizes[0]; j++ {
			n := p.Local(0, j)
			for _, l := range p.LeavesOf(n) {
				if seenLeaf[l] {
					t.Fatalf("plan(%+v): leaf %d assigned twice", c, l)
				}
				seenLeaf[l] = true
				if p.LeafParent(l) != n {
					t.Fatalf("plan(%+v): LeavesOf/LeafParent disagree on leaf %d", c, l)
				}
			}
		}
		if len(seenLeaf) != c.leaves {
			t.Fatalf("plan(%+v): %d of %d leaves assigned", c, len(seenLeaf), c.leaves)
		}
		for local := 0; local < p.Ranks(); local++ {
			parent := p.Parent(local)
			if local == p.Root() {
				if parent != -1 {
					t.Fatalf("plan(%+v): root has parent %d", c, parent)
				}
				continue
			}
			found := false
			for _, ch := range p.ChildrenOf(parent) {
				if ch == local {
					found = true
				}
			}
			if !found {
				t.Fatalf("plan(%+v): %d missing from ChildrenOf(%d)", c, local, parent)
			}
			// The chain must climb exactly one tier per hop and end at
			// the root.
			steps, at := 0, local
			for p.Parent(at) >= 0 {
				next := p.Parent(at)
				if p.TierOf(next) != p.TierOf(at)+1 {
					t.Fatalf("plan(%+v): parent of %d skips tiers", c, at)
				}
				at, steps = next, steps+1
			}
			if at != p.Root() || steps != p.Tiers()-1-p.TierOf(local) {
				t.Fatalf("plan(%+v): chain from %d ends at %d after %d steps", c, local, at, steps)
			}
		}
	}
}

// TestPlanUpstreamOrders pins the failover invariants the degraded-mode
// streams rely on: the primary endpoint comes first, every candidate
// appears exactly once, the parent's tier-mates are all present, and the
// root terminates the list whenever it is not already in the upstream
// tier.
func TestPlanUpstreamOrders(t *testing.T) {
	for _, c := range []struct{ leaves, fanin, tiers int }{
		{8, 4, 1}, {16, 4, 2}, {64, 4, 3}, {37, 5, 3},
	} {
		p, err := NewPlan(c.leaves, c.fanin, c.tiers)
		if err != nil {
			t.Fatal(err)
		}
		for leaf := 0; leaf < c.leaves; leaf++ {
			ord := p.LeafUpstreamOrder(leaf)
			if len(ord) == 0 || ord[0] != p.LeafParent(leaf) {
				t.Fatalf("plan(%+v): leaf %d order %v doesn't start at primary %d", c, leaf, ord, p.LeafParent(leaf))
			}
			checkOrder(t, p, ord, 0)
		}
		for local := 0; local < p.Ranks(); local++ {
			ord := p.UpstreamOrder(local)
			if local == p.Root() {
				if ord != nil {
					t.Fatalf("plan(%+v): root has upstream %v", c, ord)
				}
				continue
			}
			if len(ord) == 0 || ord[0] != p.Parent(local) {
				t.Fatalf("plan(%+v): node %d order %v doesn't start at parent %d", c, local, ord, p.Parent(local))
			}
			checkOrder(t, p, ord, p.TierOf(local)+1)
		}
	}
}

// checkOrder asserts an upstream list covers the whole upstream tier
// exactly once, has no duplicates, and ends at the root when the
// upstream tier is interior.
func checkOrder(t *testing.T, p *Plan, ord []int, upTier int) {
	t.Helper()
	seen := make(map[int]bool)
	for _, e := range ord {
		if seen[e] {
			t.Fatalf("duplicate endpoint %d in %v", e, ord)
		}
		seen[e] = true
	}
	for j := 0; j < p.Sizes[upTier]; j++ {
		if !seen[p.Local(upTier, j)] {
			t.Fatalf("order %v misses tier-%d node %d", ord, upTier, p.Local(upTier, j))
		}
	}
	if upTier != p.Tiers()-1 {
		if ord[len(ord)-1] != p.Root() {
			t.Fatalf("order %v doesn't end at the root %d", ord, p.Root())
		}
		if len(ord) != p.Sizes[upTier]+1 {
			t.Fatalf("order %v has %d entries, want %d", ord, len(ord), p.Sizes[upTier]+1)
		}
	} else if len(ord) != p.Sizes[upTier] {
		t.Fatalf("order %v has %d entries, want %d", ord, len(ord), p.Sizes[upTier])
	}
}
