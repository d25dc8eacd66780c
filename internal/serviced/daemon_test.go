package serviced

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/client"
	"repro/internal/exp"
	"repro/internal/nas"
	"repro/internal/trace"
	"repro/internal/wire"
)

// workload builds a fresh workload instance (runs mutate workloads, so
// every simulation gets its own).
func workload(t *testing.T, kind string, class byte, procs, iters int) *nas.Workload {
	t.Helper()
	w, err := nas.ByName(kind, nas.Class(class), procs, iters)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// capture runs the simulation with the analysis engine replaced by the
// capture tee.
func capture(t *testing.T, opts exp.ProfileOptions, specs ...[4]int) *exp.Capture {
	t.Helper()
	names := []string{"CG", "LU"}
	var ws []*nas.Workload
	for _, s := range specs {
		ws = append(ws, workload(t, names[s[0]], byte(s[1]), s[2], s[3]))
	}
	cp, err := exp.CaptureRun(exp.Tera100(), ws, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// inProcessReport renders the same run through exp.ProfileRun (the
// byte-identity baseline).
func inProcessReport(t *testing.T, opts exp.ProfileOptions, specs ...[4]int) string {
	t.Helper()
	names := []string{"CG", "LU"}
	var ws []*nas.Workload
	for _, s := range specs {
		ws = append(ws, workload(t, names[s[0]], byte(s[1]), s[2], s[3]))
	}
	rep, err := exp.ProfileRun(exp.Tera100(), ws, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// startTCP serves a daemon on an ephemeral loopback port.
func startTCP(t *testing.T, opts Options) (*Daemon, string) {
	t.Helper()
	d := New(opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go d.Serve(l)
	return d, l.Addr().String()
}

// pipeClient connects a client to the daemon over an in-process
// net.Pipe — the non-TCP transport the daemon must serve identically.
func pipeClient(t *testing.T, d *Daemon, maxFormat int) *client.Client {
	t.Helper()
	srv, cli := net.Pipe()
	go d.ServeConn(srv)
	c, err := client.New(cli, maxFormat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Shutdown() })
	return c
}

var testOpts = exp.ProfileOptions{
	WaitState: true,
	Callsites: true,
	Sizes:     true,
}

// TestLoopbackByteIdentical is the acceptance test: two concurrent
// loopback-TCP sessions, each replaying a captured simulated workload,
// must produce final reports byte-identical to an in-process
// exp.ProfileRun of the same workloads — for a v1 session and a v3
// session at once — and both must land in the daemon's history.
func TestLoopbackByteIdentical(t *testing.T) {
	cg := [4]int{0, 'A', 16, 2}
	lu := [4]int{1, 'A', 16, 2}

	optsV1 := testOpts
	optsV1.PackVersion = trace.PackV1
	optsV3 := testOpts
	optsV3.PackVersion = trace.PackV3

	// Simulations run serially (they share the pack pool); only
	// the wire sessions run concurrently.
	capCG := capture(t, optsV1, cg)
	capLU := capture(t, optsV3, lu)
	wantCG := inProcessReport(t, optsV1, cg)
	wantLU := inProcessReport(t, optsV3, lu)

	d, addr := startTCP(t, Options{})

	run := func(cp *exp.Capture, want string) func() error {
		return func() error {
			c, err := client.Dial(addr, cp.PackVersion)
			if err != nil {
				return err
			}
			defer c.Shutdown()
			rep, err := c.Replay(cp, 0)
			if err != nil {
				return err
			}
			if rep.Rendered != want {
				return &mismatchError{got: rep.Rendered, want: want}
			}
			return nil
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, f := range []func() error{run(capCG, wantCG), run(capLU, wantLU)} {
		wg.Add(1)
		go func(i int, f func() error) {
			defer wg.Done()
			errs[i] = f()
		}(i, f)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Both concurrently closed sessions landed in the history.
	st, err := d.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsClosed != 2 || st.SessionsLive != 0 || st.ShedEvents != 0 {
		t.Fatalf("status = %+v", st)
	}
	if got := st.Service.Stats.Jobs; got != 2 || len(st.Service.History) != 2 {
		t.Fatalf("service jobs = %d, history rows = %d, want 2 and 2", got, len(st.Service.History))
	}
}

type mismatchError struct{ got, want string }

func (e *mismatchError) Error() string {
	gl, wl := strings.Split(e.got, "\n"), strings.Split(e.want, "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			return "daemon report diverges from in-process report at line " +
				strings.TrimSpace(gl[i]) + " != " + strings.TrimSpace(w)
		}
	}
	return "daemon report diverges from in-process report (length)"
}

// TestDiffReplayConvergence polls the Diff API during a replay and
// verifies the client-merged cursor state equals a full Snapshot at the
// same epoch, byte for byte — and that the final report is still
// byte-identical to the in-process path afterwards (querying must not
// perturb the analysis).
func TestDiffReplayConvergence(t *testing.T) {
	spec := [4]int{0, 'A', 16, 2}
	opts := testOpts
	opts.PackVersion = trace.PackV2
	opts.TemporalWindowNs = (10 * time.Millisecond).Nanoseconds()
	cp := capture(t, opts, spec)
	want := inProcessReport(t, opts, spec)

	_, addr := startTCP(t, Options{})
	c, err := client.Dial(addr, cp.PackVersion)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	rep, err := c.Replay(cp, 3) // Diff every 3 packs + final Verify
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rendered != want {
		t.Fatal(&mismatchError{got: rep.Rendered, want: want})
	}
	if rep.Shed != 0 || rep.MaxLevel != 0 {
		t.Fatalf("unthrottled session shed %d at level %d", rep.Shed, rep.MaxLevel)
	}
}

// TestDiffCursorAgesOut drives the session's epoch log past its cap and
// checks an aged-out cursor gets a full-state resync the replayer can
// still converge from.
func TestDiffCursorAgesOut(t *testing.T) {
	spec := [4]int{0, 'A', 16, 1}
	opts := testOpts
	opts.PackVersion = trace.PackV1
	cp := capture(t, opts, spec)
	if len(cp.Packs) < 6 {
		t.Fatalf("capture too small (%d packs) to exercise the epoch log", len(cp.Packs))
	}

	d := New(Options{EpochCap: 2})
	c := pipeClient(t, d, cp.PackVersion)
	meta := client.SessionMetaFromCapture(cp)
	if _, err := c.Register(meta); err != nil {
		t.Fatal(err)
	}
	replay := client.NewDiffReplayer(meta)
	// Hold the cursor at 0 while sealing one epoch per pack: after
	// epochCap+1 seals the cursor has aged out.
	for i, p := range cp.Packs {
		if err := c.SendPack(uint32(p.Src), p.Data); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Snapshot(); err != nil { // forces a seal per pack
			t.Fatal(err)
		}
		_ = i
	}
	st, err := c.Diff(0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatalf("aged-out cursor got a delta (From %d, To %d), want full resync", st.From, st.To)
	}
	if err := replay.Apply(st); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.Verify(snap); err != nil {
		t.Fatal(err)
	}
	// A cursor ahead of the epoch head is a protocol error.
	if _, err := c.Diff(snap.To + 100); err == nil || !strings.Contains(err.Error(), "ahead") {
		t.Fatalf("future cursor: err = %v", err)
	}
}

// TestLifecycleEdges drives the protocol-violation paths: every one must
// answer with a terminal error frame, and the daemon's accounting must
// reflect the aborted session.
func TestLifecycleEdges(t *testing.T) {
	spec := [4]int{0, 'A', 16, 1}
	opts := testOpts
	opts.PackVersion = trace.PackV1
	cp := capture(t, opts, spec)
	meta := client.SessionMetaFromCapture(cp)

	t.Run("pack before register", func(t *testing.T) {
		d := New(Options{})
		c := pipeClient(t, d, 0)
		// The SDK refuses locally; speak raw frames to hit the daemon path.
		raw := rawSession(t, d)
		if err := raw.expectError(wire.TypePack, wire.EncodePack(0, cp.Packs[0].Data), "before register"); err != nil {
			t.Fatal(err)
		}
		_ = c
	})

	t.Run("duplicate register", func(t *testing.T) {
		d := New(Options{})
		raw := rawSession(t, d)
		mp, _ := wire.EncodeSessionMeta(meta)
		if err := raw.roundTrip(wire.TypeRegister, mp, wire.TypeRegisterAck); err != nil {
			t.Fatal(err)
		}
		if err := raw.expectError(wire.TypeRegister, mp, "duplicate register"); err != nil {
			t.Fatal(err)
		}
		waitCounter(t, func() bool { st, _ := d.Status(); return st.Aborted == 1 })
	})

	t.Run("snapshot and close after close", func(t *testing.T) {
		d := New(Options{})
		c := pipeClient(t, d, cp.PackVersion)
		if _, err := c.Register(meta); err != nil {
			t.Fatal(err)
		}
		if err := c.SendPack(uint32(cp.Packs[0].Src), cp.Packs[0].Data); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Close(client.CloseMetaFromCapture(cp)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Snapshot(); err == nil || !strings.Contains(err.Error(), "after close") {
			t.Fatalf("snapshot after close: err = %v", err)
		}
		// The error frame is terminal: a second Close cannot even be
		// delivered on this connection.
		if _, err := c.Close(client.CloseMetaFromCapture(cp)); err == nil {
			t.Fatal("close after terminal error succeeded")
		}
		st, err := d.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.SessionsClosed != 1 || st.Aborted != 0 {
			t.Fatalf("status = %+v", st)
		}
	})

	t.Run("double close on fresh connections", func(t *testing.T) {
		d := New(Options{})
		c := pipeClient(t, d, cp.PackVersion)
		if _, err := c.Register(meta); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Close(client.CloseMetaFromCapture(cp)); err != nil {
			t.Fatal(err)
		}
		raw := rawSession(t, d)
		cmp, _ := wire.EncodeCloseMeta(client.CloseMetaFromCapture(cp))
		if err := raw.expectError(wire.TypeClose, cmp, "before register"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("format mismatch pack", func(t *testing.T) {
		v3 := testOpts
		v3.PackVersion = trace.PackV3
		cpV3 := capture(t, v3, spec)
		d := New(Options{})
		raw := rawSession(t, d) // hello announces v1, so the session negotiates v1
		mp, _ := wire.EncodeSessionMeta(client.SessionMetaFromCapture(cpV3))
		if err := raw.roundTrip(wire.TypeRegister, mp, wire.TypeRegisterAck); err != nil {
			t.Fatal(err)
		}
		pk := wire.EncodePack(uint32(cpV3.Packs[0].Src), cpV3.Packs[0].Data)
		if err := raw.expectError(wire.TypePack, pk, "negotiated"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("client disconnect mid-pack", func(t *testing.T) {
		d := New(Options{})
		srv, cli := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- d.ServeConn(srv) }()
		c, err := client.New(cli, cp.PackVersion)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Register(meta); err != nil {
			t.Fatal(err)
		}
		// A truncated frame: the header promises more bytes than ever come.
		frame := []byte{'P', 'F', wire.TypePack, 0xFF, 0x00, 0x00, 0x00, 1, 2, 3}
		if _, err := cli.Write(frame); err != nil {
			t.Fatal(err)
		}
		cli.Close()
		if err := <-done; err == nil || !strings.Contains(err.Error(), "reading frame") {
			t.Fatalf("mid-pack disconnect: err = %v", err)
		}
		st, _ := d.Status()
		if st.Aborted != 1 {
			t.Fatalf("aborted = %d, want 1", st.Aborted)
		}
	})

	t.Run("clean disconnect before close aborts", func(t *testing.T) {
		d := New(Options{})
		srv, cli := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- d.ServeConn(srv) }()
		c, err := client.New(cli, cp.PackVersion)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Register(meta); err != nil {
			t.Fatal(err)
		}
		cli.Close() // EOF at a frame boundary, but the session is open
		if err := <-done; err == nil || !strings.Contains(err.Error(), "before close") {
			t.Fatalf("open-session EOF: err = %v", err)
		}
		st, _ := d.Status()
		if st.Aborted != 1 {
			t.Fatalf("aborted = %d, want 1", st.Aborted)
		}
	})

	t.Run("at capacity", func(t *testing.T) {
		d := New(Options{MaxSessions: 1})
		c1 := pipeClient(t, d, cp.PackVersion)
		if _, err := c1.Register(meta); err != nil {
			t.Fatal(err)
		}
		c2 := pipeClient(t, d, cp.PackVersion)
		if _, err := c2.Register(meta); err == nil || !strings.Contains(err.Error(), "capacity") {
			t.Fatalf("over-capacity register: err = %v", err)
		}
		st, _ := d.Status()
		if st.Rejected != 1 || st.SessionsLive != 1 {
			t.Fatalf("status = %+v", st)
		}
		// The slot frees when the first session closes; a new session fits.
		if _, err := c1.Close(client.CloseMetaFromCapture(cp)); err != nil {
			t.Fatal(err)
		}
		c3 := pipeClient(t, d, cp.PackVersion)
		if _, err := c3.Register(meta); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("hello negotiation clamps to daemon max", func(t *testing.T) {
		d := New(Options{MaxFormat: trace.PackV2})
		c := pipeClient(t, d, trace.PackV3)
		if c.Format() != trace.PackV2 {
			t.Fatalf("negotiated v%d, want v2", c.Format())
		}
	})
}

// waitCounter polls for an asynchronous daemon-side counter update.
func waitCounter(t *testing.T, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatal("counter never reached the expected value")
		}
		time.Sleep(time.Millisecond)
	}
}

// raw is a frame-level connection for protocol-violation tests the
// client SDK refuses to produce.
type raw struct {
	conn net.Conn
	fr   *wire.Reader
}

// rawConn opens a frame-level pipe connection without the handshake.
func rawConn(t *testing.T, d *Daemon) *raw {
	t.Helper()
	srv, cli := net.Pipe()
	go d.ServeConn(srv)
	r := &raw{conn: cli, fr: wire.NewReader(cli)}
	t.Cleanup(func() { cli.Close() })
	return r
}

func rawSession(t *testing.T, d *Daemon) *raw {
	t.Helper()
	r := rawConn(t, d)
	if err := r.roundTrip(wire.TypeHello, wire.EncodeHello(wire.Hello{Proto: wire.ProtoVersion, MaxFormat: trace.PackV1}), wire.TypeHelloAck); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *raw) roundTrip(typ byte, payload []byte, want byte) error {
	if err := wire.WriteFrame(r.conn, typ, payload); err != nil {
		return err
	}
	f, err := r.fr.Next()
	if err != nil {
		return err
	}
	if f.Type != want {
		return &mismatchError{got: string(rune(f.Type)), want: string(rune(want))}
	}
	return nil
}

func (r *raw) expectError(typ byte, payload []byte, contains string) error {
	if err := wire.WriteFrame(r.conn, typ, payload); err != nil {
		return err
	}
	f, err := r.fr.Next()
	if err != nil {
		return err
	}
	if f.Type != wire.TypeError || !strings.Contains(string(f.Payload), contains) {
		return &mismatchError{got: string(f.Payload), want: contains}
	}
	return nil
}

// TestHotTenantIsolation is the multi-tenant acceptance test: a tenant
// streaming far past its byte budget must escalate through the admission
// ladder and shed with an audited completeness bound, while a healthy
// tenant on the same daemon stays at level 0, sheds nothing, and still
// produces a report byte-identical to the in-process path.
func TestHotTenantIsolation(t *testing.T) {
	healthySpec := [4]int{0, 'A', 16, 2}
	opts := testOpts
	opts.PackVersion = trace.PackV2

	capHealthy := capture(t, opts, healthySpec)
	capHot := capture(t, opts, [4]int{1, 'A', 16, 12})
	wantHealthy := inProcessReport(t, opts, healthySpec)

	var healthyBytes, hotBytes int64
	for _, p := range capHealthy.Packs {
		healthyBytes += int64(len(p.Data))
	}
	for _, p := range capHot.Packs {
		hotBytes += int64(len(p.Data))
	}
	// The budget sits between the two volumes: the healthy tenant never
	// reaches it, the hot tenant blows through it with packs to spare.
	budget := healthyBytes + (hotBytes-healthyBytes)/8
	if budget <= healthyBytes || hotBytes < 2*budget {
		t.Fatalf("volumes too close for the test: healthy %d, hot %d", healthyBytes, hotBytes)
	}

	_, addr := startTCP(t, Options{
		SessionBudgetBytes: budget,
		Adaptive:           adapt.Config{BacklogHighBytes: budget / 8},
	})

	type result struct {
		rep wire.FinalReport
		err error
	}
	run := func(cp *exp.Capture, out *result) func() {
		return func() {
			c, err := client.Dial(addr, cp.PackVersion)
			if err != nil {
				out.err = err
				return
			}
			defer c.Shutdown()
			out.rep, out.err = c.Replay(cp, 0)
		}
	}
	var hot, healthy result
	var wg sync.WaitGroup
	for _, f := range []func(){run(capHot, &hot), run(capHealthy, &healthy)} {
		wg.Add(1)
		go func(f func()) { defer wg.Done(); f() }(f)
	}
	wg.Wait()
	if hot.err != nil || healthy.err != nil {
		t.Fatalf("hot: %v, healthy: %v", hot.err, healthy.err)
	}

	if hot.rep.MaxLevel < 2 {
		t.Fatalf("hot tenant never escalated past level %d", hot.rep.MaxLevel)
	}
	if hot.rep.Shed == 0 {
		t.Fatal("hot tenant shed nothing")
	}
	if !strings.Contains(hot.rep.Rendered, "Measurement completeness") {
		t.Fatal("hot tenant's report lacks the completeness section")
	}

	// The healthy tenant is untouched: level 0, zero shed, byte-identical.
	if healthy.rep.MaxLevel != 0 || healthy.rep.Shed != 0 {
		t.Fatalf("healthy tenant throttled: level %d, shed %d", healthy.rep.MaxLevel, healthy.rep.Shed)
	}
	if healthy.rep.Rendered != wantHealthy {
		t.Fatal(&mismatchError{got: healthy.rep.Rendered, want: wantHealthy})
	}
}

// statusJSON round-trips the daemon's status document through JSON and
// also returns its top-level keys.
func statusJSON(t *testing.T, d *Daemon) (Status, map[string]json.RawMessage) {
	t.Helper()
	raw, err := d.StatusJSON()
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	return st, keys
}

// TestStatusJSON checks the daemon's status document carries the
// cross-session history — present on a zero-Options daemon before any
// session closed — and survives a JSON round trip.
func TestStatusJSON(t *testing.T) {
	st, keys := statusJSON(t, New(Options{}))
	if _, ok := keys["service"]; !ok || st.Service.Stats.Jobs != 0 || len(st.Service.History) != 0 || st.Service.HistoryEvicted != 0 {
		t.Fatalf("empty status service = %s", keys["service"])
	}
}

// TestStatusJSONHistory closes two sessions under a history cap of one:
// the status document then carries name-sorted per-benchmark counts, the
// eviction accounted and the surviving row equal to the closed report.
func TestStatusJSONHistory(t *testing.T) {
	d := New(Options{})
	d.hist.cap = 1
	opts := testOpts
	opts.PackVersion = trace.PackV1
	var last wire.FinalReport
	var lastCap *exp.Capture
	for _, spec := range [][4]int{{0, 'A', 16, 1}, {1, 'A', 16, 1}} {
		lastCap = capture(t, opts, spec)
		rep, err := pipeClient(t, d, lastCap.PackVersion).Replay(lastCap, 0)
		if err != nil {
			t.Fatal(err)
		}
		last = rep
	}

	st, _ := statusJSON(t, d)
	ss := st.Service
	if ss.Stats.Jobs != 2 || ss.Stats.Applications != 2 || ss.Stats.Events <= last.Events {
		t.Fatalf("stats = %+v", ss.Stats)
	}
	if len(ss.Stats.PerBenchmark) != 2 ||
		ss.Stats.PerBenchmark[0].Name != "CG.A" || ss.Stats.PerBenchmark[1].Name != "LU.A" {
		t.Fatalf("per-benchmark = %+v", ss.Stats.PerBenchmark)
	}
	if len(ss.History) != 1 || ss.History[0].ID != 2 || ss.HistoryEvicted != 1 {
		t.Fatalf("history = %+v evicted = %d", ss.History, ss.HistoryEvicted)
	}
	row := ss.History[0]
	if len(row.Apps) != 1 || row.Apps[0] != lastCap.Apps[0].Name {
		t.Fatalf("history apps = %v", row.Apps)
	}
	if row.Events != last.Events || row.AppSeconds != lastCap.Apps[0].WallTime.Seconds() {
		t.Fatalf("history row = %+v vs final report events %d, wall %v", row, last.Events, lastCap.Apps[0].WallTime)
	}
}

// TestMultiAppSession replays one session carrying two applications: the
// final report has a chapter per application, and the history counts it
// as one job of two applications in a single row.
func TestMultiAppSession(t *testing.T) {
	d := New(Options{})
	opts := testOpts
	opts.PackVersion = trace.PackV1
	cp := capture(t, opts, [4]int{0, 'A', 16, 1}, [4]int{1, 'A', 16, 1})
	rep, err := pipeClient(t, d, cp.PackVersion).Replay(cp, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"chapter 1: CG.A", "chapter 2: LU.A"} {
		if !strings.Contains(rep.Rendered, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	st, err := d.Status()
	if err != nil {
		t.Fatal(err)
	}
	ss := st.Service
	if ss.Stats.Jobs != 1 || ss.Stats.Applications != 2 || ss.Stats.Events != rep.Events {
		t.Fatalf("stats = %+v, final report events %d", ss.Stats, rep.Events)
	}
	if len(ss.History) != 1 || len(ss.History[0].Apps) != 2 ||
		ss.History[0].Apps[0] != "CG.A" || ss.History[0].Apps[1] != "LU.A" {
		t.Fatalf("history = %+v", ss.History)
	}
}

// TestConcurrentSessionsRecord closes four sessions at once: every close
// is counted, and the history IDs come out unique and dense.
func TestConcurrentSessionsRecord(t *testing.T) {
	d := New(Options{})
	opts := testOpts
	opts.PackVersion = trace.PackV1
	cp := capture(t, opts, [4]int{0, 'A', 16, 1})
	clients := make([]*client.Client, 4)
	for i := range clients {
		clients[i] = pipeClient(t, d, cp.PackVersion)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			_, errs[i] = c.Replay(cp, 0)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st, err := d.Status()
	if err != nil {
		t.Fatal(err)
	}
	ss := st.Service
	if ss.Stats.Jobs != 4 || len(ss.Stats.PerBenchmark) != 1 || ss.Stats.PerBenchmark[0] != (BenchCount{"CG.A", 4}) {
		t.Fatalf("stats = %+v", ss.Stats)
	}
	seen := map[int]bool{}
	for _, r := range ss.History {
		if r.ID < 1 || r.ID > 4 {
			t.Fatalf("history id %d outside 1..4", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != 4 {
		t.Fatalf("ids = %v", seen)
	}
}

// TestProtocolErrors sweeps the remaining protocol-violation branches:
// handshake failures, malformed control payloads, and unknown frames.
func TestProtocolErrors(t *testing.T) {
	spec := [4]int{0, 'A', 16, 1}
	opts := testOpts
	opts.PackVersion = trace.PackV1
	cp := capture(t, opts, spec)
	meta := client.SessionMetaFromCapture(cp)
	mp, _ := wire.EncodeSessionMeta(meta)

	t.Run("first frame not hello", func(t *testing.T) {
		r := rawConn(t, New(Options{}))
		if err := r.expectError(wire.TypeStats, nil, "expected hello"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("bad hello payload", func(t *testing.T) {
		r := rawConn(t, New(Options{}))
		if err := r.expectError(wire.TypeHello, []byte{1}, "hello payload"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("bad protocol version", func(t *testing.T) {
		r := rawConn(t, New(Options{}))
		if err := r.expectError(wire.TypeHello, wire.EncodeHello(wire.Hello{Proto: 99, MaxFormat: 1}), "protocol version"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("no usable format", func(t *testing.T) {
		r := rawConn(t, New(Options{}))
		if err := r.expectError(wire.TypeHello, wire.EncodeHello(wire.Hello{Proto: wire.ProtoVersion, MaxFormat: 0}), "no usable pack format"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("bad register payload", func(t *testing.T) {
		r := rawSession(t, New(Options{}))
		empty, _ := wire.EncodeSessionMeta(wire.SessionMeta{Title: "no apps"})
		if err := r.expectError(wire.TypeRegister, empty, "no applications"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("duplicate app id in register", func(t *testing.T) {
		r := rawSession(t, New(Options{}))
		dup := meta
		dup.Apps = []wire.AppMeta{meta.Apps[0], meta.Apps[0]}
		p, _ := wire.EncodeSessionMeta(dup)
		if err := r.expectError(wire.TypeRegister, p, "duplicate app id"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("bad diff payload", func(t *testing.T) {
		r := rawSession(t, New(Options{}))
		if err := r.roundTrip(wire.TypeRegister, mp, wire.TypeRegisterAck); err != nil {
			t.Fatal(err)
		}
		if err := r.expectError(wire.TypeDiff, []byte{1, 2}, "diff payload"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("bad close payload", func(t *testing.T) {
		r := rawSession(t, New(Options{}))
		if err := r.roundTrip(wire.TypeRegister, mp, wire.TypeRegisterAck); err != nil {
			t.Fatal(err)
		}
		if err := r.expectError(wire.TypeClose, []byte("{"), "close payload"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("close app count mismatch", func(t *testing.T) {
		d := New(Options{})
		c := pipeClient(t, d, cp.PackVersion)
		if _, err := c.Register(meta); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Close(wire.CloseMeta{}); err == nil || !strings.Contains(err.Error(), "names 0 apps") {
			t.Fatalf("empty close: err = %v", err)
		}
	})

	t.Run("unknown frame type", func(t *testing.T) {
		r := rawSession(t, New(Options{}))
		if err := r.expectError(0x7F, nil, "unexpected frame type"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("bad pack header", func(t *testing.T) {
		r := rawSession(t, New(Options{}))
		if err := r.roundTrip(wire.TypeRegister, mp, wire.TypeRegisterAck); err != nil {
			t.Fatal(err)
		}
		if err := r.expectError(wire.TypePack, wire.EncodePack(0, []byte{1, 2}), "pack header"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("pack for unknown app id", func(t *testing.T) {
		r := rawSession(t, New(Options{}))
		m2 := meta
		m2.Apps = []wire.AppMeta{{Name: meta.Apps[0].Name, Procs: meta.Apps[0].Procs, AppID: meta.Apps[0].AppID + 77}}
		p2, _ := wire.EncodeSessionMeta(m2)
		if err := r.roundTrip(wire.TypeRegister, p2, wire.TypeRegisterAck); err != nil {
			t.Fatal(err)
		}
		pk := wire.EncodePack(uint32(cp.Packs[0].Src), cp.Packs[0].Data)
		if err := r.expectError(wire.TypePack, pk, "unregistered app"); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAuditPackIngestion checks a client-side shed ledger (an audit
// pack, as the adaptive instrumented runtime emits) folds into the
// session's completeness accounting.
func TestAuditPackIngestion(t *testing.T) {
	spec := [4]int{0, 'A', 16, 1}
	opts := testOpts
	opts.PackVersion = trace.PackV1
	cp := capture(t, opts, spec)
	meta := client.SessionMetaFromCapture(cp)

	d := New(Options{})
	c := pipeClient(t, d, cp.PackVersion)
	if _, err := c.Register(meta); err != nil {
		t.Fatal(err)
	}
	for _, p := range cp.Packs {
		if err := c.SendPack(uint32(p.Src), p.Data); err != nil {
			t.Fatal(err)
		}
	}
	audit := trace.EncodeAuditPack(meta.Apps[0].AppID, 0, []trace.AuditEntry{
		{Kind: trace.KindIsend, Shed: 40, Kept: 60},
	})
	if err := c.SendPack(0, audit); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Close(client.CloseMetaFromCapture(cp))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Rendered, "Measurement completeness") {
		t.Fatal("client-side audit did not surface in the completeness section")
	}
	// The daemon's own gates shed nothing; the ledger is the client's.
	if rep.Shed != 0 {
		t.Fatalf("daemon-side shed = %d, want 0", rep.Shed)
	}
}

// TestDiffAtHeadIsEmpty checks a cursor at the epoch head gets an empty
// delta, not a resync.
func TestDiffAtHeadIsEmpty(t *testing.T) {
	spec := [4]int{0, 'A', 16, 1}
	opts := testOpts
	opts.PackVersion = trace.PackV1
	cp := capture(t, opts, spec)

	d := New(Options{})
	c := pipeClient(t, d, cp.PackVersion)
	if _, err := c.Register(client.SessionMetaFromCapture(cp)); err != nil {
		t.Fatal(err)
	}
	if err := c.SendPack(uint32(cp.Packs[0].Src), cp.Packs[0].Data); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Diff(snap.To)
	if err != nil {
		t.Fatal(err)
	}
	if st.Full || len(st.Apps) != 0 || st.From != snap.To || st.To != snap.To {
		t.Fatalf("head diff = %+v", st)
	}
}

// TestStatsOverWireAndLogf exercises the Stats frame end to end over TCP
// and the daemon's connection diagnostics hook.
func TestStatsOverWireAndLogf(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	d, addr := startTCP(t, Options{
		Logf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, format)
			mu.Unlock()
		},
	})
	c, err := client.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"service":{"stats":{"jobs":0,`) {
		t.Fatalf("wire status lacks the service document: %s", raw)
	}
	c.Shutdown()
	_ = d

	// A protocol violation over TCP lands in the diagnostics hook.
	c2, err := client.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2.Snapshot() // before register: terminal error
	c2.Shutdown()
	waitCounter(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(logged) > 0 })
}
