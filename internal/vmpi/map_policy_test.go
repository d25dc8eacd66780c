package vmpi

import "testing"

// TestMapPolicyTable sweeps every mapping policy over even and uneven
// partition-size combinations, checking the full pivot protocol from
// both sides: the smaller partition is the master (ties break toward
// the lower partition id), every slave rank is matched with exactly the
// master the policy function dictates, every master receives exactly
// its slaves in registration order, and masters with no slaves still
// get the end-of-mapping message (an empty target list, not a hang).
func TestMapPolicyTable(t *testing.T) {
	cases := []struct {
		name             string
		policy           Policy
		appProcs, anSize int
	}{
		{"roundrobin-even", MapRoundRobin, 8, 4},
		{"roundrobin-uneven", MapRoundRobin, 7, 3},
		{"fixed-even", MapFixed, 8, 4},
		{"fixed-uneven", MapFixed, 7, 3},
		{"random-uneven", MapRandom, 7, 3},
		// Size tie: the lower partition id (app) becomes master, so the
		// analyzers are the slaves even though they are the "tool" side.
		{"tie-app-master", MapRoundRobin, 3, 3},
		// Master larger than slave: the app partition is master and some
		// masters end up with no slaves at all.
		{"masters-idle-roundrobin", MapRoundRobin, 5, 2},
		{"one-to-one", MapFixed, 1, 1},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			targets := make(map[int][]int) // global rank -> mapped universe ranks
			collect := func(other string, s *Session) {
				var m Map
				desc := s.Layout().DescByName(other)
				if err := s.MapPartitions(desc.ID, c.policy, &m); err != nil {
					t.Error(err)
					return
				}
				targets[s.Rank().Global()] = append([]int(nil), m.Targets()...)
			}
			l := runMPMD(t,
				progSpec{"app", c.appProcs, func(s *Session) { collect("Analyzer", s) }},
				progSpec{"Analyzer", c.anSize, func(s *Session) { collect("app", s) }},
			)
			app, an := l.DescByName("app"), l.DescByName("Analyzer")

			// Pivot rule: smaller partition is master; ties go to the
			// lower partition id, which is the app.
			master, slave := app, an
			if app.Size() > an.Size() {
				master, slave = an, app
			}

			// Every slave has exactly one target, inside the master
			// partition.
			assigned := make(map[int]int) // slave global -> master global
			for _, sg := range slave.Globals {
				tg := targets[sg]
				if len(tg) != 1 {
					t.Fatalf("slave %d targets = %v, want exactly 1", sg, tg)
				}
				if l.PartitionOf(tg[0]) != master {
					t.Fatalf("slave %d mapped to %d, outside the master partition", sg, tg[0])
				}
				assigned[sg] = tg[0]
			}
			// Deterministic policies must match the policy function
			// exactly (registration order is slave.Globals order).
			if c.policy != MapRandom {
				fn := policyFunc(c.policy)
				for i, sg := range slave.Globals {
					want := master.Globals[fn(i, slave.Size(), master.Size())]
					if assigned[sg] != want {
						t.Fatalf("slave %d (local %d) mapped to %d, policy says %d", sg, i, assigned[sg], want)
					}
				}
			}
			// Master lists mirror the assignment, in registration order,
			// and cover every slave exactly once. Idle masters must have
			// returned with an empty list (not hung).
			seen := make(map[int]bool)
			for _, mg := range master.Globals {
				tg, ok := targets[mg]
				if !ok {
					t.Fatalf("master %d never completed the mapping", mg)
				}
				last := -1
				for _, sg := range tg {
					if assigned[sg] != mg {
						t.Fatalf("master %d lists slave %d, but the slave was told %d", mg, sg, assigned[sg])
					}
					if seen[sg] {
						t.Fatalf("slave %d appears in two master lists", sg)
					}
					seen[sg] = true
					// Registration order: slave globals ascend within one
					// master's list.
					if sg <= last {
						t.Fatalf("master %d list %v not in registration order", mg, tg)
					}
					last = sg
				}
			}
			if len(seen) != slave.Size() {
				t.Fatalf("master lists cover %d of %d slaves", len(seen), slave.Size())
			}
		})
	}
}
