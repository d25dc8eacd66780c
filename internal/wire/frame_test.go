package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewReader(&buf)
	for i, p := range payloads {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != byte(i+1) {
			t.Fatalf("frame %d: type %#x", i, f.Type)
		}
		if !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(f.Payload), len(p))
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want clean EOF at frame boundary, got %v", err)
	}
}

func TestFramePayloadAliasesBuffer(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, 1, []byte("first"))
	WriteFrame(&buf, 2, []byte("second"))
	fr := NewReader(&buf)
	f1, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	got := string(f1.Payload) // copy before the next read invalidates it
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if got != "first" {
		t.Fatalf("payload = %q", got)
	}
}

func TestFrameTruncation(t *testing.T) {
	var full bytes.Buffer
	if err := WriteFrame(&full, TypePack, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	// Every proper prefix except the empty one must read as a mid-frame
	// disconnect, never a clean EOF.
	for cut := 1; cut < len(raw); cut++ {
		fr := NewReader(bytes.NewReader(raw[:cut]))
		_, err := fr.Next()
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
	fr := NewReader(bytes.NewReader(nil))
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want EOF", err)
	}
}

func TestFrameBadMagic(t *testing.T) {
	fr := NewReader(strings.NewReader("XXsomething else entirely"))
	if _, err := fr.Next(); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v", err)
	}
}

func TestFrameHostileLength(t *testing.T) {
	hdr := []byte{'P', 'F', TypePack, 0xFF, 0xFF, 0xFF, 0xFF}
	fr := NewReader(bytes.NewReader(hdr))
	if _, err := fr.Next(); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("err = %v", err)
	}

	// A shrunk limit rejects frames the default would accept.
	var buf bytes.Buffer
	WriteFrame(&buf, TypePack, make([]byte, 128))
	fr = NewReader(&buf)
	fr.max = 64
	if _, err := fr.Next(); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteFrameOversize(t *testing.T) {
	// Oversize payloads are refused before any bytes hit the stream.
	var buf bytes.Buffer
	big := make([]byte, MaxFrameBytes+1)
	if err := WriteFrame(&buf, TypePack, big); err == nil {
		t.Fatal("oversize payload accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes written for a refused frame", buf.Len())
	}
}

// failAfter is a connection that dies after n bytes, mid-write.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, io.ErrClosedPipe
	}
	w.n -= len(p)
	return len(p), nil
}

// TestBufferedWritersKeepTheWireBytes: a connection's bufio.Writer takes
// the frame header (and a pack's writer id) in its own buffer; the bytes
// that reach the stream are those of the plain writer over an assembled
// payload — whatever the buffer's fill when the frame starts.
func TestBufferedWritersKeepTheWireBytes(t *testing.T) {
	packs := [][]byte{nil, []byte("p"), bytes.Repeat([]byte{0xCD}, 40), bytes.Repeat([]byte{0xEF}, 5000)}
	var want bytes.Buffer
	for i, pk := range packs {
		if err := WriteFrame(&want, TypePack, EncodePack(uint32(i+7), pk)); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&want, TypeCredit, pk); err != nil {
			t.Fatal(err)
		}
	}
	for _, size := range []int{16, 19, 64, 4096} { // 16 and 19: no room for a header behind a short frame
		var got bytes.Buffer
		bw := bufio.NewWriterSize(&got, size)
		for i, pk := range packs {
			if err := WritePack(bw, uint32(i+7), pk); err != nil {
				t.Fatal(err)
			}
			if err := WriteFrame(bw, TypeCredit, pk); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("buffer of %d: %d bytes on the wire, the plain writer wrote %d", size, got.Len(), want.Len())
		}
	}

	// Refused before a byte is buffered.
	bw := bufio.NewWriter(io.Discard)
	if err := WritePack(bw, 1, make([]byte, MaxFrameBytes)); err == nil || bw.Buffered() != 0 {
		t.Fatalf("oversize pack: err = %v with %d bytes buffered", err, bw.Buffered())
	}
	// A connection that dies surfaces from the pack bytes, from the flush
	// that makes room for the next header, and — bufio's error is sticky —
	// from a header that had room.
	for _, tc := range []struct {
		dieAfter, pack int
		first          error
	}{{0, 10, io.ErrClosedPipe}, {16, 11, nil}, {12, 10, io.ErrClosedPipe}} {
		bw := bufio.NewWriterSize(&failAfter{n: tc.dieAfter}, 16)
		if err := WritePack(bw, 1, make([]byte, tc.pack)); err != tc.first {
			t.Fatalf("connection dead after %d bytes: first pack err = %v, want %v", tc.dieAfter, err, tc.first)
		}
		if err := WritePack(bw, 2, nil); err != io.ErrClosedPipe {
			t.Fatalf("connection dead after %d bytes: second pack err = %v", tc.dieAfter, err)
		}
	}
	if err := WriteFrame(&failAfter{n: 3}, TypeCredit, []byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("plain writer, dead connection: err = %v", err)
	}
}

func TestFixedPayloadRoundTrips(t *testing.T) {
	h, err := ParseHello(EncodeHello(Hello{Proto: ProtoVersion, MaxFormat: 3}))
	if err != nil || h.Proto != ProtoVersion || h.MaxFormat != 3 {
		t.Fatalf("hello = %+v, %v", h, err)
	}
	ha, err := ParseHelloAck(EncodeHelloAck(HelloAck{Proto: 1, Format: 2}))
	if err != nil || ha.Format != 2 {
		t.Fatalf("hello-ack = %+v, %v", ha, err)
	}
	ra, err := ParseRegisterAck(EncodeRegisterAck(RegisterAck{Session: 1 << 40, Window: 8}))
	if err != nil || ra.Session != 1<<40 || ra.Window != 8 {
		t.Fatalf("register-ack = %+v, %v", ra, err)
	}
	cr, err := ParseCredit(EncodeCredit(Credit{Credits: 4, Window: 8}))
	if err != nil || cr.Credits != 4 || cr.Window != 8 {
		t.Fatalf("credit = %+v, %v", cr, err)
	}
	dr, err := ParseDiffReq(EncodeDiffReq(DiffReq{Cursor: 77}))
	if err != nil || dr.Cursor != 77 {
		t.Fatalf("diff = %+v, %v", dr, err)
	}
	src, pack, err := ParsePack(EncodePack(9, []byte("packbytes")))
	if err != nil || src != 9 || string(pack) != "packbytes" {
		t.Fatalf("pack = %d %q, %v", src, pack, err)
	}

	for name, parse := range map[string]func([]byte) error{
		"hello":        func(p []byte) error { _, err := ParseHello(p); return err },
		"hello-ack":    func(p []byte) error { _, err := ParseHelloAck(p); return err },
		"register-ack": func(p []byte) error { _, err := ParseRegisterAck(p); return err },
		"credit":       func(p []byte) error { _, err := ParseCredit(p); return err },
		"diff":         func(p []byte) error { _, err := ParseDiffReq(p); return err },
		"pack":         func(p []byte) error { _, _, err := ParsePack(p); return err },
	} {
		if err := parse([]byte{1}); err == nil {
			t.Fatalf("%s accepted a 1-byte payload", name)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	cases := []State{
		{From: 0, To: 0, Full: false},
		{From: 3, To: 9, Full: true, Apps: [][]byte{[]byte("alpha"), nil, []byte("gamma")}},
		{From: 1, To: 2, Apps: [][]byte{{}}},
	}
	for i, want := range cases {
		got, err := ParseState(EncodeState(want))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.From != want.From || got.To != want.To || got.Full != want.Full || len(got.Apps) != len(want.Apps) {
			t.Fatalf("case %d: got %+v", i, got)
		}
		for j := range want.Apps {
			if !bytes.Equal(got.Apps[j], want.Apps[j]) {
				t.Fatalf("case %d app %d: %q != %q", i, j, got.Apps[j], want.Apps[j])
			}
		}
	}
}

func TestStateDefensive(t *testing.T) {
	valid := EncodeState(State{From: 1, To: 2, Apps: [][]byte{[]byte("abcd")}})

	hostileCount := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hostileCount[17:], 1<<30)
	hostileLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hostileLen[21:], 1<<30)

	bad := map[string][]byte{
		"short":         valid[:10],
		"hostile count": hostileCount,
		"hostile len":   hostileLen,
		"truncated app": valid[:len(valid)-2],
		"trailing":      append(append([]byte(nil), valid...), 0xEE),
	}
	for name, p := range bad {
		if _, err := ParseState(p); err == nil {
			t.Fatalf("%s state accepted", name)
		}
	}
}

func TestSessionMetaValidation(t *testing.T) {
	ok := SessionMeta{
		Title: "t",
		Apps:  []AppMeta{{Name: "CG.A", Procs: 16, AppID: 1, Labels: map[uint32]string{7: "site"}}},
	}
	p, err := EncodeSessionMeta(ok)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSessionMeta(p)
	if err != nil || got.Apps[0].Labels[7] != "site" {
		t.Fatalf("meta = %+v, %v", got, err)
	}

	bad := []SessionMeta{
		{Title: "no apps"},
		{Apps: []AppMeta{{Name: "", Procs: 4}}},
		{Apps: []AppMeta{{Name: "x", Procs: 0}}},
		{Apps: []AppMeta{{Name: "x", Procs: 1 << 30}}},
		{Apps: make([]AppMeta, maxSessionApps+1)},
	}
	for i, m := range bad {
		for j := range m.Apps {
			if m.Apps[j].Name == "" && i == 4 {
				m.Apps[j] = AppMeta{Name: "x", Procs: 1}
			}
		}
		p, err := EncodeSessionMeta(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSessionMeta(p); err == nil {
			t.Fatalf("bad meta %d accepted", i)
		}
	}
	if _, err := ParseSessionMeta([]byte("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestJSONPayloadRoundTrips(t *testing.T) {
	cm := CloseMeta{
		Apps: []AppFinal{{WallNs: 123456}},
		Loss: []LossRow{{App: "CG.A", Rank: 2, Dropped: 3, LostInFlight: 1, Shed: 9}},
	}
	p, err := EncodeCloseMeta(cm)
	if err != nil {
		t.Fatal(err)
	}
	gotCM, err := ParseCloseMeta(p)
	if err != nil || gotCM.Apps[0].WallNs != 123456 || gotCM.Loss[0].Shed != 9 {
		t.Fatalf("close = %+v, %v", gotCM, err)
	}
	if _, err := ParseCloseMeta([]byte("[")); err == nil {
		t.Fatal("bad close JSON accepted")
	}

	fr := FinalReport{Session: 5, Events: 100, Packs: 7, Shed: 3, MaxLevel: 2, Rendered: "report text"}
	p, err = EncodeFinalReport(fr)
	if err != nil {
		t.Fatal(err)
	}
	gotFR, err := ParseFinalReport(p)
	if err != nil || gotFR != fr {
		t.Fatalf("report = %+v, %v", gotFR, err)
	}
	if _, err := ParseFinalReport([]byte("[")); err == nil {
		t.Fatal("bad report JSON accepted")
	}
}
