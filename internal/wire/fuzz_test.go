package wire

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// windowedPartialBytes builds a small canonical windowed partial — the
// wire-visible window-series payload a State/Diff answer carries per
// app. Test-only import: the wire package itself stays analysis-free.
func windowedPartialBytes(tb testing.TB) []byte {
	tb.Helper()
	pp := analysis.NewPartial(0, analysis.PartialOptions{AppSize: 4, WaitState: true, WindowNs: 1000})
	for i := int64(0); i < 40; i++ {
		ev := trace.Event{
			Kind: trace.KindSend, Rank: int32(i % 4), Peer: int32((i + 1) % 4),
			Size: 64, TStart: i * 100, TEnd: i*100 + 50,
		}
		pp.AddEvent(&ev)
	}
	return pp.AppendCanonical(nil)
}

// FuzzDecodeFrame drives the frame reader and every frame-payload parser
// over arbitrary byte streams, mirroring the trace package's pack fuzz
// contract: malformed input must error, never panic or over-read. The
// stream is decoded frame by frame; each recovered payload is then fed to
// the parser its type byte selects, exactly like the daemon's dispatch.
func FuzzDecodeFrame(f *testing.F) {
	// Valid single frames of each payload shape.
	seed := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(TypeHello, EncodeHello(Hello{Proto: ProtoVersion, MaxFormat: 3})))
	f.Add(seed(TypeHelloAck, EncodeHelloAck(HelloAck{Proto: ProtoVersion, Format: 2})))
	f.Add(seed(TypeRegisterAck, EncodeRegisterAck(RegisterAck{Session: 1, Window: 8})))
	f.Add(seed(TypeCredit, EncodeCredit(Credit{Credits: 8, Window: 8})))
	f.Add(seed(TypePack, EncodePack(3, []byte{1, 0, 0, 0, 16, 0, 0, 0})))
	f.Add(seed(TypeDiff, EncodeDiffReq(DiffReq{Cursor: 2})))
	f.Add(seed(TypeState, EncodeState(State{From: 1, To: 2, Full: true, Apps: [][]byte{[]byte("pp")}})))
	if meta, err := EncodeSessionMeta(SessionMeta{Title: "t", Apps: []AppMeta{{Name: "CG.A", Procs: 16, AppID: 1}}}); err == nil {
		f.Add(seed(TypeRegister, meta))
	}
	// A windowed register (the PR10 geometry fields) and a State whose app
	// payload is a real windowed partial encoding, so mutations reach the
	// window-series framing (count, indices, nested length-prefixed
	// partials) through the daemon's own dispatch path.
	if meta, err := EncodeSessionMeta(SessionMeta{
		Title: "w", Apps: []AppMeta{{Name: "LU.A", Procs: 8, AppID: 0}},
		WindowNs: 1000, WindowSlideNs: 500, WindowGraceNs: 100,
	}); err == nil {
		f.Add(seed(TypeRegister, meta))
	}
	f.Add(seed(TypeState, EncodeState(State{From: 0, To: 3, Full: true, Apps: [][]byte{windowedPartialBytes(f)}})))
	if cm, err := EncodeCloseMeta(CloseMeta{Apps: []AppFinal{{WallNs: 1}}}); err == nil {
		f.Add(seed(TypeClose, cm))
	}
	if rep, err := EncodeFinalReport(FinalReport{Events: 5, Windows: 3, LateEvents: 1}); err == nil {
		f.Add(seed(TypeReport, rep))
	}
	// Two frames back to back: boundary handling.
	f.Add(append(seed(TypeSnapshot, nil), seed(TypeStats, nil)...))
	// Truncated header, bad magic, hostile length, format-mismatch hello.
	f.Add([]byte{'P'})
	f.Add([]byte{'P', 'F', TypePack, 0xFF, 0xFF})
	f.Add([]byte{'X', 'X', 0, 0, 0, 0, 0})
	f.Add([]byte{'P', 'F', TypePack, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add(seed(TypeHello, []byte{ProtoVersion, 200}))
	f.Add(seed(TypeHello, []byte{ProtoVersion}))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewReader(bytes.NewReader(data))
		// Cap the payload limit so hostile lengths cannot ask the reader
		// for a 64 MiB allocation per fuzz exec.
		fr.max = 1 << 16
		for {
			frame, err := fr.Next()
			if err != nil {
				if err == io.EOF && len(frame.Payload) != 0 {
					t.Fatal("EOF with a payload")
				}
				return
			}
			switch frame.Type {
			case TypeHello:
				ParseHello(frame.Payload)
			case TypeHelloAck:
				ParseHelloAck(frame.Payload)
			case TypeRegister:
				ParseSessionMeta(frame.Payload)
			case TypeRegisterAck:
				ParseRegisterAck(frame.Payload)
			case TypePack:
				ParsePack(frame.Payload)
			case TypeCredit:
				ParseCredit(frame.Payload)
			case TypeDiff:
				ParseDiffReq(frame.Payload)
			case TypeState:
				if st, err := ParseState(frame.Payload); err == nil {
					// A parsed state must re-encode to the identical bytes:
					// the codec is canonical in both directions.
					if !bytes.Equal(EncodeState(st), frame.Payload) {
						t.Fatalf("state re-encode diverges")
					}
				}
			case TypeClose:
				ParseCloseMeta(frame.Payload)
			case TypeReport:
				ParseFinalReport(frame.Payload)
			}
		}
	})
}
