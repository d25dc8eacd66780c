package tbon

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/instrument"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// runTree executes main on n ranks with a shared communicator and a tree
// node of the given fanout.
func runTree(t *testing.T, n, fanout int, main func(node *Node, r *mpi.Rank)) {
	t.Helper()
	var comm *mpi.Comm
	w := mpi.NewWorld(mpi.DefaultConfig(), mpi.Program{Name: "tree", Procs: n, Main: func(r *mpi.Rank) {
		node, err := New(r, comm, fanout)
		if err != nil {
			t.Error(err)
			return
		}
		main(node, r)
	}})
	comm = w.NewComm(w.ProgramRanks(0))
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func encodeInt(v int64) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(v))
	return buf
}

func decodeInt(buf []byte) int64 { return int64(binary.LittleEndian.Uint64(buf)) }

// sumFilter adds integer payloads.
func sumFilter(children [][]byte, own []byte) []byte {
	total := decodeInt(own)
	for _, c := range children {
		total += decodeInt(c)
	}
	return encodeInt(total)
}

func TestTreeShape(t *testing.T) {
	runTree(t, 13, 3, func(n *Node, r *mpi.Rank) {
		me := r.Global()
		switch me {
		case 0:
			if !n.IsRoot() || n.Parent() != -1 || n.Depth() != 0 {
				t.Error("root shape wrong")
			}
			if kids := n.Children(); len(kids) != 3 || kids[0] != 1 || kids[2] != 3 {
				t.Errorf("root children = %v", kids)
			}
		case 4:
			if n.Parent() != 1 || n.Depth() != 2 {
				t.Errorf("rank 4: parent=%d depth=%d", n.Parent(), n.Depth())
			}
			if !n.IsLeaf() {
				t.Error("rank 4 should be a leaf of a 13-node 3-ary tree")
			}
		case 1:
			if n.IsLeaf() || n.Parent() != 0 {
				t.Error("rank 1 shape wrong")
			}
		}
	})
}

func TestReduceSumsAllContributions(t *testing.T) {
	const n = 20
	var got int64
	runTree(t, n, 2, func(node *Node, r *mpi.Rank) {
		combined, isRoot := node.Reduce(encodeInt(int64(r.Global()+1)), sumFilter)
		if isRoot {
			got = decodeInt(combined)
		} else if combined != nil {
			t.Error("non-root received a result")
		}
	})
	if got != n*(n+1)/2 {
		t.Fatalf("sum = %d, want %d", got, n*(n+1)/2)
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	const n = 11
	got := make([]int64, n)
	runTree(t, n, 3, func(node *Node, r *mpi.Rank) {
		var buf []byte
		if node.IsRoot() {
			buf = encodeInt(424242)
		}
		out := node.Broadcast(buf)
		got[r.Global()] = decodeInt(out)
	})
	for i, v := range got {
		if v != 424242 {
			t.Fatalf("rank %d got %d", i, v)
		}
	}
}

func TestReduceStreamWaves(t *testing.T) {
	const n, waves = 9, 5
	var sums []int64
	runTree(t, n, 3, func(node *Node, r *mpi.Rank) {
		node.ReduceStream(waves,
			func(w int) []byte { return encodeInt(int64(w + 1)) },
			sumFilter,
			func(w int, combined []byte) { sums = append(sums, decodeInt(combined)) },
		)
	})
	if len(sums) != waves {
		t.Fatalf("waves = %d", len(sums))
	}
	for w, s := range sums {
		if s != int64(n*(w+1)) {
			t.Fatalf("wave %d sum = %d, want %d", w, s, n*(w+1))
		}
	}
}

func TestProfileMergeOverTree(t *testing.T) {
	// The canonical TBON use: merge per-rank MPI profiles up the tree.
	const n = 16
	var merged instrument.CallProfile
	runTree(t, n, 4, func(node *Node, r *mpi.Rank) {
		own := make(instrument.CallProfile)
		own.Add(&trace.Event{Kind: trace.KindSend, Size: int64(r.Global()), TStart: 0, TEnd: 10})
		combined, isRoot := node.Reduce(own.Encode(), MergeEncodedProfiles)
		if isRoot {
			p, err := instrument.DecodeCallProfile(combined)
			if err != nil {
				t.Error(err)
				return
			}
			merged = p
		}
	})
	st := merged[trace.KindSend]
	if st == nil || st.Hits != n || st.Bytes != n*(n-1)/2 || st.TimeNs != 10*n {
		t.Fatalf("merged = %+v", st)
	}
}

func TestReduceDepthLatency(t *testing.T) {
	// A deeper tree (smaller fanout) costs more wall time per wave than a
	// shallow one at equal payloads: the paper's pipeline-depth point.
	latency := func(fanout int) float64 {
		var secs float64
		const n = 64
		var comm *mpi.Comm
		w := mpi.NewWorld(mpi.DefaultConfig(), mpi.Program{Name: "t", Procs: n, Main: func(r *mpi.Rank) {
			node, err := New(r, comm, fanout)
			if err != nil {
				t.Error(err)
				return
			}
			node.Reduce(encodeInt(1), sumFilter)
			if node.IsRoot() {
				secs = r.Wtime()
			}
		}})
		comm = w.NewComm(w.ProgramRanks(0))
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return secs
	}
	deep, shallow := latency(2), latency(32)
	if deep <= shallow {
		t.Fatalf("binary tree (%g) should be slower than fanout-32 (%g)", deep, shallow)
	}
}

func TestNewValidation(t *testing.T) {
	var comm *mpi.Comm
	w := mpi.NewWorld(mpi.DefaultConfig(), mpi.Program{Name: "t", Procs: 2, Main: func(r *mpi.Rank) {
		if _, err := New(r, comm, 1); err == nil {
			t.Error("fanout 1 accepted")
		}
		other := r.World().NewComm([]int{1 - r.Global()})
		if _, err := New(r, other, 2); err == nil {
			t.Error("non-member comm accepted")
		}
	}})
	comm = w.NewComm(w.ProgramRanks(0))
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: Reduce with the sum filter equals the arithmetic series sum
// for any rank count and fanout.
func TestReduceSumProperty(t *testing.T) {
	f := func(nRaw, fRaw uint8) bool {
		n := int(nRaw%30) + 1
		fanout := int(fRaw%6) + 2
		var got int64
		var comm *mpi.Comm
		w := mpi.NewWorld(mpi.DefaultConfig(), mpi.Program{Name: "t", Procs: n, Main: func(r *mpi.Rank) {
			node, err := New(r, comm, fanout)
			if err != nil {
				return
			}
			if combined, isRoot := node.Reduce(encodeInt(int64(r.Global())), sumFilter); isRoot {
				got = decodeInt(combined)
			}
		}})
		comm = w.NewComm(w.ProgramRanks(0))
		if err := w.Run(); err != nil {
			return false
		}
		return got == int64(n*(n-1)/2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileCodecRoundTrip(t *testing.T) {
	p := make(instrument.CallProfile)
	p.Add(&trace.Event{Kind: trace.KindSend, Size: 100, TStart: 0, TEnd: 7})
	p.Add(&trace.Event{Kind: trace.KindBarrier, TStart: 3, TEnd: 5})
	got, err := instrument.DecodeCallProfile(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got[trace.KindSend].Bytes != 100 || got[trace.KindBarrier].TimeNs != 2 {
		t.Fatalf("roundtrip = %+v", got)
	}
	if _, err := instrument.DecodeCallProfile([]byte{1}); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := instrument.DecodeCallProfile([]byte{5, 0, 0, 0, 1}); err == nil {
		t.Fatal("truncated buffer accepted")
	}
}
