package bench

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/serviced"
	"repro/internal/wire"
)

// countingConn counts the bytes crossing the ingest boundary: it is the
// io.ReadWriteCloser handed to client.New, so "written" is exactly the
// client→daemon socket traffic, frame headers included.
type countingConn struct {
	io.ReadWriteCloser
	written atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// loopbackDaemon is an in-process serviced.Daemon behind a loopback TCP
// listener.
type loopbackDaemon struct {
	d    *serviced.Daemon
	l    net.Listener
	done chan error
}

func startDaemon(tr *Tracer, opts serviced.Options) (*loopbackDaemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ld := &loopbackDaemon{d: serviced.New(opts), l: l, done: make(chan error, 1)}
	go func() {
		sp := tr.Begin(Root, "serviced.Daemon.Serve", -1)
		err := ld.d.Serve(l)
		sp.End()
		ld.done <- err
	}()
	return ld, nil
}

// stop closes the listener and waits for Serve to return. Sessions are
// closed by their clients before this is called.
func (ld *loopbackDaemon) stop() {
	ld.l.Close()
	<-ld.done
}

// status reads the daemon's counters through its public Status call.
func (ld *loopbackDaemon) status() map[string]Value {
	st, err := ld.d.Status()
	if err != nil {
		return nil
	}
	return map[string]Value{
		"serviced.shed_events":      {float64(st.ShedEvents), "count"},
		"serviced.sessions_aborted": {float64(st.Aborted), "count"},
		"serviced.replica_merges":   {float64(st.ReplicaMerges), "count"},
	}
}

// session is one client connection with a registered session and a
// byte counter on its socket.
type session struct {
	c    *client.Client
	conn *countingConn
}

func (ld *loopbackDaemon) open(meta wire.SessionMeta) (*session, error) {
	nc, err := net.Dial("tcp", ld.l.Addr().String())
	if err != nil {
		return nil, err
	}
	conn := &countingConn{ReadWriteCloser: nc}
	c, err := client.New(conn, 0)
	if err != nil {
		return nil, err
	}
	if _, err := c.Register(meta); err != nil {
		c.Shutdown()
		return nil, err
	}
	return &session{c: c, conn: conn}, nil
}

// ingestMeta registers the ingest workloads' one application with the
// default module set, under the title the in-process report uses.
func ingestMeta(writers int) wire.SessionMeta {
	return wire.SessionMeta{Title: benchTitle, Apps: []wire.AppMeta{{Name: benchApp, Procs: writers, AppID: AppID}}}
}

// daemonInstance is the write-heavy daemon workload: the fused_ingest
// packs through client.SendPack → loopback TCP → serviced.
type daemonInstance struct {
	*ingestInputs
	ld *loopbackDaemon
}

func setupDaemon(in *ingestInputs, tr *Tracer, opts serviced.Options) (instance, error) {
	ld, err := startDaemon(tr, opts)
	if err != nil {
		return nil, err
	}
	return &daemonInstance{ingestInputs: in, ld: ld}, nil
}

func (w *daemonInstance) close() { w.ld.stop() }

// extras reports the daemon's own ledger.
func (w *daemonInstance) extras() map[string]Value { return w.ld.status() }

// run is one pass: one session streams the whole corpus at the rate the
// credit window allows; eight times along the way the client asks for a
// Snapshot, timed from just before the last SendPack it covers.
func (w *daemonInstance) run(tr *Tracer, parent SpanRef, id int) (unit, error) {
	var u unit
	c := w.corpus
	s, err := w.ld.open(ingestMeta(c.Config.Writers))
	u.attempted++
	if err != nil {
		u.failed++
		return u, fmt.Errorf("bench: open session: %w", err)
	}
	defer s.c.Shutdown()
	every := queryEvery(len(c.Packs))
	var last wire.State
	for k, pk := range c.Packs {
		query := (k+1)%every == 0 || k == len(c.Packs)-1
		var tq time.Time
		if query {
			tq = time.Now()
		}
		sp := tr.Begin(parent, "client.Client.SendPack", id)
		err := s.c.SendPack(pk.Src, pk.Data)
		sp.End()
		u.attempted++
		if err != nil {
			u.failed++
			return u, fmt.Errorf("bench: send pack %d: %w", k, err)
		}
		if !query {
			continue
		}
		sp = tr.Begin(parent, "client.Client.Snapshot", id)
		last, err = s.c.Snapshot()
		sp.End()
		u.attempted++
		if err != nil {
			u.failed++
			return u, fmt.Errorf("bench: snapshot after pack %d: %w", k, err)
		}
		u.latencies = append(u.latencies, time.Since(tq))
	}
	sp := tr.Begin(parent, "client.Client.Close", id)
	fr, err := s.c.Close(wire.CloseMeta{Apps: []wire.AppFinal{{}}})
	sp.End()
	u.attempted++
	if err != nil {
		u.failed++
		return u, fmt.Errorf("bench: close: %w", err)
	}
	u.wireBytes = s.conn.written.Load()

	// Conservation and content: the daemon analyzed every generated
	// event, its final Snapshot is the reference fold's canonical bytes,
	// and its rendered report is the reference's (and so fused_ingest's).
	u.events = fr.Events
	u.attempted += 3
	if fr.Events != c.Events || fr.Shed != 0 {
		u.failed++
		return u, fmt.Errorf("bench: daemon analyzed %d of %d generated events (%d shed)", fr.Events, c.Events, fr.Shed)
	}
	if len(last.Apps) != 1 || !bytes.Equal(last.Apps[0], w.ref.canonical) {
		u.failed++
		return u, fmt.Errorf("bench: daemon's final snapshot differs from the reference fold")
	}
	if fr.Rendered != string(w.ref.rendered) {
		u.failed++
		return u, fmt.Errorf("bench: daemon's final report differs from the reference fold")
	}
	return u, nil
}
