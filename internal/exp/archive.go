package exp

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/blackboard"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/wire"
)

// An archive records a run as the frame log of the daemon session that
// would analyse it (package wire): a Hello frame naming the highest pack
// format, a Register frame with the run's SessionMeta (title, each
// application's name, size, id and labels, modules, windows), one Pack
// frame per block in the order the analyzers took them, and a Close frame
// with the wall times and loss rows. The writer refuses what the reader
// refuses; the reader passes every frame through wire's size caps and
// Parse* validators.

// archiveWriter streams an archive: the head before the run, a Pack frame
// per teed block during it, the Close frame after it.
type archiveWriter struct {
	bw *bufio.Writer
}

// newArchiveWriter writes the head of cp's archive to w: cp carries the
// run's title, pack format, applications and options.
func newArchiveWriter(w io.Writer, cp *Capture) (*archiveWriter, error) {
	reg, err := wire.EncodeSessionMeta(cp.SessionMeta())
	if err == nil {
		_, err = wire.ParseSessionMeta(reg)
	}
	if err != nil {
		return nil, fmt.Errorf("exp: archive: %w", err)
	}
	a := &archiveWriter{bw: bufio.NewWriterSize(w, wire.ConnBuffer)}
	hello := wire.EncodeHello(wire.Hello{Proto: wire.ProtoVersion, MaxFormat: byte(cp.PackVersion)})
	if err := wire.WriteFrame(a.bw, wire.TypeHello, hello); err != nil {
		return nil, err
	}
	return a, wire.WriteFrame(a.bw, wire.TypeRegister, reg)
}

// pack records one block from writer src.
func (a *archiveWriter) pack(src int, data []byte) error {
	return wire.WritePack(a.bw, uint32(src), data)
}

// close ends the archive with cm.
func (a *archiveWriter) close(cm wire.CloseMeta) error {
	p, err := wire.EncodeCloseMeta(cm)
	if err == nil {
		err = wire.WriteFrame(a.bw, wire.TypeClose, p)
	}
	if err == nil {
		err = a.bw.Flush()
	}
	return err
}

// readArchive reads an archive into the capture it records. Every pack must
// name a registered application in a format the Hello frame allows (a
// shed ledger may ride in any), and nothing may follow the Close frame.
func readArchive(r io.Reader) (*Capture, error) {
	cp, err := readFrames(wire.NewReader(r))
	if err != nil {
		return nil, fmt.Errorf("exp: archive: %w", err)
	}
	return cp, nil
}

func readFrames(fr *wire.Reader) (*Capture, error) {
	cp := &Capture{}
	apps := map[uint32]bool{}
	for i := 0; ; i++ {
		f, err := fr.Next()
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		switch head := [...]byte{wire.TypeHello, wire.TypeRegister}; {
		case i < len(head) && f.Type != head[i]:
			return nil, fmt.Errorf("frame %#x where %#x belongs", f.Type, head[i])
		case i == 0:
			h, err := wire.ParseHello(f.Payload)
			if err == nil && (h.Proto != wire.ProtoVersion || h.MaxFormat < trace.PackV1 || h.MaxFormat > trace.PackV3) {
				err = fmt.Errorf("protocol %d, pack format %d", h.Proto, h.MaxFormat)
			}
			if err != nil {
				return nil, err
			}
			cp.PackVersion = int(h.MaxFormat)
		case i == 1:
			m, err := wire.ParseSessionMeta(f.Payload)
			if err != nil {
				return nil, err
			}
			cp.Title, cp.Options = m.Title, ProfileOptions{WaitState: m.WaitState, TemporalWindowNs: m.TemporalWindowNs,
				Callsites: m.Callsites, Sizes: m.Sizes, WindowNs: m.WindowNs, WindowSlideNs: m.WindowSlideNs, WindowGraceNs: m.WindowGraceNs}
			for _, a := range m.Apps {
				cp.Apps = append(cp.Apps, CaptureApp{Name: a.Name, Procs: a.Procs, AppID: a.AppID, Labels: a.Labels})
				apps[a.AppID] = true
			}
		case f.Type == wire.TypePack:
			src, pack, err := wire.ParsePack(f.Payload)
			var h trace.Header
			if err == nil {
				h, err = trace.PeekHeader(pack)
			}
			if err == nil && !apps[h.AppID] {
				err = fmt.Errorf("pack for unregistered app id %d", h.AppID)
			} else if err == nil && h.Version != trace.PackAudit && h.Version > cp.PackVersion {
				err = fmt.Errorf("pack format v%d in a v%d archive", h.Version, cp.PackVersion)
			}
			if err != nil {
				return nil, err
			}
			if h.Version != trace.PackAudit {
				cp.Events += int64(h.Count)
			}
			cp.Packs = append(cp.Packs, CapturedPack{Src: int(src), Data: bytes.Clone(pack)})
		case f.Type == wire.TypeClose:
			m, err := wire.ParseCloseMeta(f.Payload)
			if err == nil && len(m.Apps) != len(cp.Apps) {
				err = fmt.Errorf("close with %d applications, register with %d", len(m.Apps), len(cp.Apps))
			}
			if _, next := fr.Next(); err == nil && next != io.EOF {
				err = cmp.Or(next, errors.New("frames after close"))
			}
			if err != nil {
				return nil, err
			}
			for i, a := range m.Apps {
				cp.Apps[i].WallTime = time.Duration(a.WallNs)
			}
			for _, lr := range m.Loss {
				cp.Loss = append(cp.Loss, report.StreamLossRow{App: lr.App, Rank: lr.Rank,
					Dropped: lr.Dropped, LostInFlight: lr.LostInFlight, Shed: lr.Shed})
			}
			return cp, nil
		default:
			return nil, fmt.Errorf("frame %#x in a session log", f.Type)
		}
	}
}

// analyse folds the capture in-process: one level per application, set up
// by addLevel with the run's own sizes, module selection and windows, fed
// the packs in capture order as a flat run's analyzers feed them. The
// report is the one the run rendered online but for the window trackers'
// arrival-side lines: they measure the analyzer's clock, which a capture
// does not record.
func (cp *Capture) analyse(workers int) (*report.Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bb := blackboard.New(blackboard.Config{Workers: workers})
	defer bb.Close()
	disp, err := analysis.NewDispatcher(bb)
	if err != nil {
		return nil, err
	}
	rep := &report.Report{Title: cp.Title, StreamLoss: cp.Loss}
	for _, a := range cp.Apps {
		lv, err := addLevel(disp, a, cp.Options, nil)
		if err != nil {
			return nil, err
		}
		lv.ch.WallTime = a.WallTime
		rep.Chapters = append(rep.Chapters, lv.ch)
	}
	fused := analysis.NewFusedIngest(disp)
	for _, p := range cp.Packs {
		if _, err = fused.Absorb(p.Src, p.Data); err != nil {
			break
		}
	}
	bb.Drain()
	if err != nil {
		return nil, err
	}
	if n := bb.Stats().OpPanics; n > 0 {
		return nil, fmt.Errorf("exp: %d packs of the capture did not fold", n)
	}
	return rep, nil
}
