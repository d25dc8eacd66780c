// Package tbon lays out the online engine's reduction tree
// (exp.ProfileRun with TreeLevels >= 2): leaf analyzers reduce event packs
// to partial profiles and stream them through tiered aggregator ranks to a
// single root, one vmpi stream channel per tier, with failover orderings
// that reparent a dead aggregator's children to a sibling or the root.
//
// The classic single-communicator TBON the paper argues against (§V) is
// test scaffolding: Node, in this package's test files, measured by
// BenchmarkTBONVsStreams.
package tbon

import "fmt"

// ChannelBase is the first vmpi stream channel used by the reduction
// tree. Channel ChannelBase+t carries partial profiles written INTO tier
// t (leaf analyzers write on ChannelBase+0, tier-0 aggregators forward on
// ChannelBase+1, and so on). Telemetry owns channel 9; the tree starts
// just above it.
const ChannelBase = 10

// Channel returns the vmpi stream channel for traffic entering tier t.
func Channel(t int) int { return ChannelBase + t }

// Plan is the static layout of a bottom-up k-ary reduction tree over an
// aggregator partition: a separate partition of aggregator ranks arranged
// in tiers, with the leaf analyzers below tier 0 and the root — the single
// rank that merges into the application levels — at the top.
//
// Aggregator local ranks are laid out tier-0 first: locals
// [0, Sizes[0]) are tier 0, the next Sizes[1] are tier 1, and the last
// local is always the root. Every tier is ceil(previous/fanin) wide
// except the top, which is forced to a single root even when that
// exceeds the nominal fan-in.
type Plan struct {
	leaves int
	fanin  int
	// Sizes[t] is the number of aggregator ranks in tier t; the last
	// entry is always 1 (the root).
	Sizes []int
	// offs[t] is the local rank of the first node in tier t.
	offs []int
}

// NewPlan lays out a tree for the given number of leaf analyzers, nominal
// fan-in, and number of aggregator tiers. tiers counts the aggregator
// levels including the root: tiers=1 is a star (every leaf feeds the root
// directly), tiers=2 inserts one interior level below the root.
func NewPlan(leaves, fanin, tiers int) (*Plan, error) {
	if leaves < 1 {
		return nil, fmt.Errorf("tbon: plan needs at least one leaf, got %d", leaves)
	}
	if fanin < 2 {
		return nil, fmt.Errorf("tbon: fan-in %d below 2", fanin)
	}
	if tiers < 1 {
		return nil, fmt.Errorf("tbon: tier count %d below 1", tiers)
	}
	p := &Plan{leaves: leaves, fanin: fanin}
	prev := leaves
	for t := 0; t < tiers; t++ {
		n := (prev + fanin - 1) / fanin
		if t == tiers-1 {
			n = 1 // the top tier is the root, whatever the fan-in says
		}
		p.Sizes = append(p.Sizes, n)
		prev = n
	}
	off := 0
	p.offs = make([]int, tiers)
	for t, n := range p.Sizes {
		p.offs[t] = off
		off += n
	}
	return p, nil
}

// Tiers returns the number of aggregator tiers (root included).
func (p *Plan) Tiers() int { return len(p.Sizes) }

// Ranks returns the total number of aggregator ranks in the partition.
func (p *Plan) Ranks() int { return p.offs[len(p.offs)-1] + p.Sizes[len(p.Sizes)-1] }

// Root returns the local rank of the root (always the last local).
func (p *Plan) Root() int { return p.Ranks() - 1 }

// Local returns the partition-local rank of node j in tier t.
func (p *Plan) Local(t, j int) int {
	if t < 0 || t >= len(p.Sizes) || j < 0 || j >= p.Sizes[t] {
		panic(fmt.Sprintf("tbon: no node (tier %d, index %d) in plan %v", t, j, p.Sizes))
	}
	return p.offs[t] + j
}

// TierOf returns the tier of a partition-local aggregator rank.
func (p *Plan) TierOf(local int) int {
	for t := len(p.Sizes) - 1; t >= 0; t-- {
		if local >= p.offs[t] {
			if local >= p.offs[t]+p.Sizes[t] {
				break
			}
			return t
		}
	}
	panic(fmt.Sprintf("tbon: local %d outside plan %v", local, p.Sizes))
}

// IndexOf returns the within-tier index of a partition-local rank.
func (p *Plan) IndexOf(local int) int { return local - p.offs[p.TierOf(local)] }

// LeafParent returns the local rank of the tier-0 aggregator a leaf
// analyzer reports to: fan-in blocks of consecutive leaves, with the
// remainder folded into the last tier-0 node.
func (p *Plan) LeafParent(leaf int) int {
	if leaf < 0 || leaf >= p.leaves {
		panic(fmt.Sprintf("tbon: leaf %d outside [0,%d)", leaf, p.leaves))
	}
	j := leaf / p.fanin
	if j >= p.Sizes[0] {
		j = p.Sizes[0] - 1
	}
	return p.Local(0, j)
}

// Parent returns the local rank of an aggregator's parent, or -1 for the
// root.
func (p *Plan) Parent(local int) int {
	t := p.TierOf(local)
	if t == len(p.Sizes)-1 {
		return -1
	}
	j := p.IndexOf(local) / p.fanin
	if j >= p.Sizes[t+1] {
		j = p.Sizes[t+1] - 1
	}
	return p.Local(t+1, j)
}

// UpstreamOrder returns the failover-ordered upstream endpoints of an
// aggregator: its parent first, then the parent's tier-mates in ring
// order (the "reparent to a sibling" path of the PR 1 degraded mode),
// and finally the root if it is not already in that tier. The root
// itself has no upstream and returns nil.
func (p *Plan) UpstreamOrder(local int) []int {
	parent := p.Parent(local)
	if parent < 0 {
		return nil
	}
	up := p.TierOf(parent)
	start := p.IndexOf(parent)
	out := make([]int, 0, p.Sizes[up]+1)
	for k := 0; k < p.Sizes[up]; k++ {
		out = append(out, p.Local(up, (start+k)%p.Sizes[up]))
	}
	if up != len(p.Sizes)-1 {
		out = append(out, p.Root())
	}
	return out
}

// LeafUpstreamOrder returns the failover-ordered upstream endpoints of a
// leaf analyzer: its tier-0 parent first, the other tier-0 aggregators in
// ring order, then the root if tier 0 is not already the root tier.
func (p *Plan) LeafUpstreamOrder(leaf int) []int {
	primary := p.LeafParent(leaf)
	start := p.IndexOf(primary)
	out := make([]int, 0, p.Sizes[0]+1)
	for k := 0; k < p.Sizes[0]; k++ {
		out = append(out, p.Local(0, (start+k)%p.Sizes[0]))
	}
	if len(p.Sizes) > 1 {
		out = append(out, p.Root())
	}
	return out
}
