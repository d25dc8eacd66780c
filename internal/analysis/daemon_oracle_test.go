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
// values.
func TestPartialOracleDaemon(t *testing.T) {
	d := serviced.New(serviced.Options{})
	for seed := int64(0); seed < 1000; seed += 5 {
		_, perRank, opts, want := analysis.PartialOracleRun(seed)
		version := []int{trace.PackV1, trace.PackV2, trace.PackV3}[seed/5%3]
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
		// Round robin over the ranks, each rank's packs in order.
		packs := analysis.OraclePacks(t, version, perRank, 1+int(seed)%7)
		for i, more := 0, true; more; i++ {
			more = false
			for r := range packs {
				if i < len(packs[r]) {
					if err := c.SendPack(uint32(r), packs[r][i]); err != nil {
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
