// Customks: extending the analysis engine with user-defined knowledge
// sources, the paper's plugin model ("knowledge sources can be developed
// in separated shared libraries ... integrating new KSs on the
// blackboard").
//
// Two custom KSs are registered alongside nothing else:
//
//   - a message-size histogram KS with a single sensitivity on decoded
//     events;
//   - a "late-sender detector" joining send and recv records (a two-slot
//     sensitivity set), matched by message tag, to flag receives that
//     waited on their send, demonstrating multi-type sensitivities;
//
// plus a bootstrap KS that registers the detector dynamically from inside
// an operation and then removes itself — the paper's simplified
// opportunistic reasoning.
//
// The example posts its own per-event entries, the paper's Figure 4
// granularity. The built-in pipeline (internal/analysis) folds per pack
// instead and posts no event entries (DESIGN.md §11): a KS that wants its
// events subscribes to "pack"@level and decodes with a trace.StreamDecoder
// (DecodeDispatch).
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"

	"repro/internal/blackboard"
	"repro/internal/trace"
)

const level = "demo-app"

func main() {
	log.SetFlags(0)
	bb := blackboard.New(blackboard.Config{Workers: 4})
	defer bb.Close()

	startT := blackboard.TypeID(level, "run-start")
	eventT := blackboard.TypeID(level, "event")
	sendT := blackboard.TypeID(level, "send-record")
	recvT := blackboard.TypeID(level, "recv-record")

	// KS 1: message-size histogram (power-of-two buckets).
	var histMu sync.Mutex
	hist := map[int]int{}
	if err := bb.Register(blackboard.KS{
		Name:          "size-histogram",
		Sensitivities: []blackboard.Type{eventT},
		Op: func(_ *blackboard.Blackboard, in []*blackboard.Entry) {
			ev := in[0].Payload.(*trace.Event)
			if !ev.Kind.IsP2P() || ev.Size == 0 {
				return
			}
			bucket := 0
			for s := ev.Size; s > 1; s >>= 1 {
				bucket++
			}
			histMu.Lock()
			hist[bucket]++
			histMu.Unlock()
		},
	}); err != nil {
		log.Fatal(err)
	}

	// KS 2: splitter feeding the late-sender join below.
	if err := bb.Register(blackboard.KS{
		Name:          "p2p-splitter",
		Sensitivities: []blackboard.Type{eventT},
		Op: func(bb *blackboard.Blackboard, in []*blackboard.Entry) {
			ev := in[0].Payload.(*trace.Event)
			switch ev.Kind {
			case trace.KindSend:
				bb.Post(sendT, 0, ev)
			case trace.KindRecv:
				bb.Post(recvT, 0, ev)
			}
		},
	}); err != nil {
		log.Fatal(err)
	}

	// Bootstrap KS: installs the late-sender detector on the run-start
	// entry, then removes itself (dynamic KS management from inside an
	// operation). The stream waits for it: a record posted before the
	// detector exists would find no listener.
	var lateMu sync.Mutex
	late := 0
	if err := bb.Register(blackboard.KS{
		Name:          "bootstrap",
		Sensitivities: []blackboard.Type{startT},
		Op: func(bb *blackboard.Blackboard, _ []*blackboard.Entry) {
			installLateSender(bb, &lateMu, &late)
			bb.Unregister("bootstrap")
		},
	}); err != nil {
		log.Fatal(err)
	}

	bb.Post(startT, 0, nil)
	bb.Drain()

	// Feed a synthetic event stream: sends at various sizes, half of them
	// "late" relative to their receives, each message tagged by index.
	for i := 0; i < 1000; i++ {
		size := int64(64 << (i % 8))
		sendStart := int64(i * 100)
		recvStart := sendStart + 50
		if i%2 == 0 {
			recvStart = sendStart - 50 // receiver posted early: late sender
		}
		bb.Post(eventT, 0, &trace.Event{Kind: trace.KindSend, Rank: 0, Peer: 1, Tag: int32(i), Size: size, TStart: sendStart, TEnd: sendStart + 10})
		bb.Post(eventT, 0, &trace.Event{Kind: trace.KindRecv, Rank: 1, Peer: 0, Tag: int32(i), Size: size, TStart: recvStart, TEnd: sendStart + 20})
	}
	bb.Drain()

	fmt.Println("message-size histogram (bytes -> count):")
	buckets := make([]int, 0, len(hist))
	for b := range hist {
		buckets = append(buckets, b)
	}
	sort.Ints(buckets)
	for _, b := range buckets {
		fmt.Printf("  2^%-2d %5d\n", b, hist[b])
	}
	fmt.Printf("late senders detected: %d / 1000 pairs\n", late)
	st := bb.Stats()
	fmt.Printf("blackboard: %d entries posted, %d jobs executed\n", st.Posted, st.Jobs)
	if bb.Registered("bootstrap") {
		log.Fatal("bootstrap KS failed to remove itself")
	}
}

// installLateSender registers the two-slot late-sender join KS. A job
// gets whichever send and recv records are pending, so each record waits
// in pending until the other half of its message (same tag) arrives.
func installLateSender(bb *blackboard.Blackboard, mu *sync.Mutex, late *int) {
	sendT := blackboard.TypeID(level, "send-record")
	recvT := blackboard.TypeID(level, "recv-record")
	pending := map[int32]*trace.Event{}
	err := bb.Register(blackboard.KS{
		Name: "late-sender",
		// Two sensitivities: one send record + one recv record per job.
		Sensitivities: []blackboard.Type{sendT, recvT},
		Op: func(_ *blackboard.Blackboard, in []*blackboard.Entry) {
			mu.Lock()
			defer mu.Unlock()
			for _, e := range in {
				ev := e.Payload.(*trace.Event)
				other, ok := pending[ev.Tag]
				if !ok {
					pending[ev.Tag] = ev
					continue
				}
				delete(pending, ev.Tag)
				send, recv := other, ev
				if send.Kind != trace.KindSend {
					send, recv = recv, send
				}
				if send.TStart > recv.TStart {
					*late++
				}
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
}
