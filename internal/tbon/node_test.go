package tbon

// Node is the classic TBON of MRNet, GTI and Periscope, which the paper's
// related-work section positions its blackboard design against (§V):
// instrumented processes are the leaves of a k-ary tree over one
// communicator, rooted at rank 0 with parent(i) = (i-1)/fanout; data flows
// toward the front-end and is combined at every internal node by reduction
// filters. Nothing in the engine uses it — the reduction tree is laid out
// by Plan — so it lives in test files, beside its callers: the tests here
// and BenchmarkTBONVsStreams (ablation_test.go), which quantifies the
// paper's criticism that a TBON funnels whatever does not reduce through
// the root's bandwidth. All operations are collective over the
// communicator (every member must call them in the same order).

import (
	"fmt"

	"repro/internal/instrument"
	"repro/internal/mpi"
)

// Filter combines the payloads received from a node's children with the
// node's own payload into the buffer forwarded upward (MRNet's reduction
// filter). Filters must be pure: they may not retain the input slices.
type Filter func(children [][]byte, own []byte) []byte

// Node is one process's view of the overlay tree.
type Node struct {
	rank   *mpi.Rank
	comm   *mpi.Comm
	fanout int
	me     int
	// wave numbers the tree operations so successive reductions on the
	// same tree don't cross-match.
	wave int
}

// tag space for tree traffic, above application tags and below the vmpi
// control tags.
const tagTreeBase = 1 << 19

// New builds a node handle for the calling rank on a fanout-ary tree over
// comm. fanout must be at least 2.
func New(r *mpi.Rank, c *mpi.Comm, fanout int) (*Node, error) {
	if fanout < 2 {
		return nil, fmt.Errorf("tbon: fanout %d below 2", fanout)
	}
	me := c.LocalOf(r.Global())
	if me < 0 {
		return nil, fmt.Errorf("tbon: rank %d not in the communicator", r.Global())
	}
	return &Node{rank: r, comm: c, fanout: fanout, me: me}, nil
}

// IsRoot reports whether this node is the front-end.
func (n *Node) IsRoot() bool { return n.me == 0 }

// Parent returns the parent's communicator rank (-1 for the root).
func (n *Node) Parent() int {
	if n.me == 0 {
		return -1
	}
	return (n.me - 1) / n.fanout
}

// Children returns the node's child ranks in the communicator.
func (n *Node) Children() []int {
	var out []int
	for i := 1; i <= n.fanout; i++ {
		c := n.me*n.fanout + i
		if c < n.comm.Size() {
			out = append(out, c)
		}
	}
	return out
}

// IsLeaf reports whether the node has no children (an instrumented
// back-end in TBON terms).
func (n *Node) IsLeaf() bool { return len(n.Children()) == 0 }

// Depth returns the node's distance from the root.
func (n *Node) Depth() int {
	d, i := 0, n.me
	for i > 0 {
		i = (i - 1) / n.fanout
		d++
	}
	return d
}

// Reduce performs one reduction wave: every node contributes own; internal
// nodes combine their children's buffers with own through filter and
// forward the result; the root returns (combined, true) and every other
// node returns (nil, false). Collective: every member of the communicator
// must call Reduce with the same filter semantics.
func (n *Node) Reduce(own []byte, filter Filter) ([]byte, bool) {
	tag := tagTreeBase + n.wave*2
	n.wave++
	children := n.Children()
	inputs := make([][]byte, 0, len(children))
	// Children complete in any order; receive by source so determinism
	// holds.
	for _, c := range children {
		_, payload := n.rank.Recv(n.comm, c, tag)
		inputs = append(inputs, payload)
	}
	combined := own
	if len(inputs) > 0 {
		combined = filter(inputs, own)
	}
	if n.IsRoot() {
		return combined, true
	}
	n.rank.Send(n.comm, n.Parent(), tag, int64(len(combined)), combined)
	return nil, false
}

// Broadcast pushes a buffer from the root to every node (the TBON
// downward control path); each node returns the received buffer. The
// buffer travels the tree, not a star.
func (n *Node) Broadcast(buf []byte) []byte {
	tag := tagTreeBase + n.wave*2 + 1
	n.wave++
	if !n.IsRoot() {
		_, buf = n.rank.Recv(n.comm, n.Parent(), tag)
	}
	for _, c := range n.Children() {
		n.rank.Send(n.comm, c, tag, int64(len(buf)), buf)
	}
	return buf
}

// ReduceStream performs `waves` successive reductions (the TBON streaming
// mode used by tools like Paradyn: a continuous sequence of filtered
// waves). produce is called per wave for the node's own contribution; the
// root's sink receives each wave's combined result.
func (n *Node) ReduceStream(waves int, produce func(wave int) []byte, filter Filter, sink func(wave int, combined []byte)) {
	for w := 0; w < waves; w++ {
		combined, isRoot := n.Reduce(produce(w), filter)
		if isRoot && sink != nil {
			sink(w, combined)
		}
	}
}

// MergeEncodedProfiles is a reduction filter over encoded call profiles: it
// decodes each input, folds them together with own, and re-encodes.
// Undecodable inputs panic — a filter bug, not a recoverable condition.
func MergeEncodedProfiles(children [][]byte, own []byte) []byte {
	acc, err := instrument.DecodeCallProfile(own)
	if err != nil {
		panic(fmt.Sprintf("tbon: merge filter: %v", err))
	}
	for _, c := range children {
		p, err := instrument.DecodeCallProfile(c)
		if err != nil {
			panic(fmt.Sprintf("tbon: merge filter: %v", err))
		}
		acc.MergeProfile(p)
	}
	return acc.Encode()
}
