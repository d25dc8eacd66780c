package analysis_test

import (
	"net"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/client"
	"repro/internal/serviced"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestPartialOracleDaemon is TestPartialOracle's daemon leg: every fifth
// of its 1 000 runs streams, as packs of one source per rank in the v1, v2
// or v3 format, from a client through serviced.Daemon.ServeConn over
// net.Pipe, so every frame passes the daemon's connection handler and its
// session. The final Snapshot's partial must decode to the reference's
// values. Every other run folds on a two-worker daemon's lanes, and every
// run polls Diff between rounds of packs, so seals split channels' sends
// from their receives: the lane replicas' pendings cross the seals through
// the delta, and the synchronous delta settles at each pack's end.
func TestPartialOracleDaemon(t *testing.T) {
	daemons := []*serviced.Daemon{serviced.New(serviced.Options{}), serviced.New(serviced.Options{Workers: 2})}
	for seed := int64(0); seed < 1000; seed += 5 {
		_, perRank, opts, want := analysis.PartialOracleRun(seed)
		version := []int{trace.PackV1, trace.PackV2, trace.PackV3}[seed/5%3]
		d := daemons[seed/5%2]
		srv, conn := net.Pipe()
		go d.ServeConn(srv)
		c, err := client.New(conn, version)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Register(wire.SessionMeta{
			Title: "oracle", Apps: []wire.AppMeta{{Name: "app", Procs: opts.AppSize, AppID: 1}},
			WaitState: opts.WaitState, TemporalWindowNs: opts.TemporalWindowNs, Callsites: opts.Callsites,
			Sizes: opts.Sizes, WindowNs: opts.WindowNs,
		}); err != nil {
			t.Fatal(err)
		}
		// Round robin over the ranks, each rank's packs in order. Rank r
		// writes as source r+r/2, so on the lanes (source mod 2) ranks 1
		// and 2, 3 and 4, … share one and their channels pair in it.
		packs := analysis.OraclePacks(t, version, perRank, 1+int(seed)%7)
		cursor := uint64(0)
		for i, more := 0, true; more; i++ {
			if i > 0 && i%(1+int(seed)%3) == 0 {
				st, err := c.Diff(cursor)
				if err != nil {
					t.Fatalf("seed %d: diff before round %d: %v", seed, i, err)
				}
				cursor = st.To
			}
			more = false
			for r := range packs {
				if i < len(packs[r]) {
					if err := c.SendPack(uint32(r+r/2), packs[r][i]); err != nil {
						t.Fatalf("seed %d: pack %d of rank %d: %v", seed, i, r, err)
					}
					more = true
				}
			}
		}
		st, err := c.Snapshot()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pp, err := analysis.DecodePartial(st.Apps[0])
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := analysis.EngineProfile(pp); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (v%d packs): the daemon's profile disagrees with the reference: %s",
				seed, version, analysis.ProfileDiff(got, want))
		}
		if _, err := c.Close(wire.CloseMeta{Apps: []wire.AppFinal{{}}}); err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
	}
}
