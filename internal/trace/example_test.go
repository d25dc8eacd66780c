package trace_test

import (
	"fmt"

	"repro/internal/trace"
)

// Events are batched into fixed-layout binary packs — "the C structure is
// directly sent" — and decoded without any schema negotiation.
func Example() {
	b := trace.NewPackBuilder(1 /* app id */, 0 /* rank */, 64, 1<<20)
	for i := 0; i < 3; i++ {
		b.Add(&trace.Event{
			Kind: trace.KindSend, Rank: 0, Peer: 1, Tag: int32(i),
			Size: int64(1024 * (i + 1)), TStart: int64(i * 10), TEnd: int64(i*10 + 5),
		})
	}
	pack := b.Take()

	var total int64
	var d trace.StreamDecoder
	n, err := d.DecodeDispatch(pack, func(e *trace.Event) { total += e.Size })
	if err != nil {
		fmt.Println(err)
		return
	}
	h, _ := trace.PeekHeader(pack)
	fmt.Printf("app %d sent %d events, %d bytes payload\n", h.AppID, n, total)
	// Output: app 1 sent 3 events, 6144 bytes payload
}
