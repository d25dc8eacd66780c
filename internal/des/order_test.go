package des

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"testing"
	"time"
)

// orderProg is a seeded random program over every kernel primitive. Each
// step and each callback appends (now, actor, step) to a running hash, so
// two kernels agree on the hash only if they execute the same things in the
// same order at the same virtual times. Every decision draws from the
// simulator's one random source: a single step executed out of order
// shifts every later draw, and the hash with it.
type orderProg struct {
	s      *Simulator
	h      hash.Hash
	steps  int
	procs  []*Proc // by actor id, in spawn order
	parked []int   // actors blocked in the Park step, in park order
	conds  [3]Cond
	kills  int
}

const (
	orderProcs    = 16
	orderSteps    = 180 // per initial process
	orderMaxProcs = 48
	orderMaxKills = 4
)

// orderWhy is a lazily rendered park reason (ParkFor/WaitFor).
type orderWhy int

func (w orderWhy) String() string { return fmt.Sprintf("golden-%d", int(w)) }

func (g *orderProg) log(actor, step int) {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(g.s.Now()))
	binary.LittleEndian.PutUint64(b[8:], uint64(int64(actor)))
	binary.LittleEndian.PutUint64(b[16:], uint64(int64(step)))
	g.h.Write(b[:])
}

func (g *orderProg) spawn(steps int) {
	id := len(g.procs)
	g.procs = append(g.procs, g.s.Spawn(fmt.Sprintf("p%d", id), g.body(id, steps)))
}

// wake resumes actor id if it is still blocked in its Park step; the check
// keeps a backstop callback from unparking a process that was already
// woken and has since blocked somewhere else.
func (g *orderProg) wake(id int) {
	if i := slices.Index(g.parked, id); i >= 0 {
		g.parked = slices.Delete(g.parked, i, i+1)
		g.procs[id].Unpark()
	}
}

// signal is the shared AtCall callback behind every Cond wait: one
// scheduled Signal per Wait keeps the program free of deadlock (live
// waiters never outnumber pending signals).
func (g *orderProg) signal(arg any) {
	c := arg.(*Cond)
	g.log(-2, len(c.waiters))
	c.Signal()
}

func (g *orderProg) body(id, steps int) func(*Proc) {
	return func(p *Proc) {
		s, r := g.s, g.s.Rand()
		for i := 0; i < steps; i++ {
			op := r.Intn(100)
			g.steps++
			g.log(id, op)
			switch {
			case op < 14:
				p.Sleep(0)
			case op < 34:
				p.Sleep(time.Duration(r.Intn(500)))
			case op < 44:
				p.SleepUntil(p.Now() + Time(r.Intn(400)) - 100) // sometimes in the past
			case op < 54:
				g.parked = append(g.parked, id)
				after(s, time.Duration(r.Intn(300)), func() { g.log(-1, id); g.wake(id) })
				for slices.Contains(g.parked, id) {
					if i%2 == 0 {
						p.park("golden", nil)
					} else {
						p.ParkFor(orderWhy(id))
					}
				}
			case op < 61:
				if n := len(g.parked); n > 0 {
					g.wake(g.parked[r.Intn(n)])
				}
			case op < 72:
				c := &g.conds[r.Intn(len(g.conds))]
				s.AtCall(p.Now()+Time(r.Intn(300)), g.signal, c)
				if i%2 == 0 {
					c.Wait(p, "golden")
				} else {
					c.WaitFor(p, orderWhy(id))
				}
			case op < 78:
				g.conds[r.Intn(len(g.conds))].Signal()
			case op < 82:
				g.conds[r.Intn(len(g.conds))].Broadcast()
			case op < 87:
				if len(g.procs) < orderMaxProcs {
					g.spawn(20 + r.Intn(20))
				}
			case op < 89:
				if v := r.Intn(len(g.procs)); v != id && g.kills < orderMaxKills {
					g.kills++
					g.log(-3, v)
					g.procs[v].Kill()
				}
			case op < 95:
				s.At(p.Now()+Time(r.Intn(200)), func() { g.log(-4, id) })
			default:
				c := &g.conds[id%len(g.conds)]
				after(s, time.Duration(r.Intn(200)), func() { g.log(-5, id); c.Broadcast() })
			}
			g.log(id, 100+op)
		}
	}
}

// eventOrderHash runs the program for one seed and returns the hash of its
// log, closed with the final clock.
func eventOrderHash(seed int64) (sum string, steps, procs int, err error) {
	g := &orderProg{s: New(seed), h: sha256.New()}
	for i := 0; i < orderProcs; i++ {
		g.spawn(orderSteps)
	}
	err = g.s.Run()
	g.log(-6, len(g.procs))
	return hex.EncodeToString(g.h.Sum(nil)), g.steps, len(g.procs), err
}

// TestEventOrderGolden is the order differential for the kernel alone,
// independent of the layers above it: the hashes were captured on c8390f4,
// the last commit whose scheduler goroutine ran every callback and resumed
// every process through a two-channel rendezvous. Whichever goroutine
// executes the event loop, the log must not move.
func TestEventOrderGolden(t *testing.T) {
	golden := []struct {
		seed int64
		sum  string
	}{
		{1, "5c267906d9e8077e9523f8fd1d7c8f0a5af0f9027e642d1da0f6f97e657fb1f2"},
		{2, "3f4674b3d4ceaccc8942165d1b6bb03659ffbb92f38ca0f8455f66ca9dd9fa41"},
		{3, "071d54c646e6484d1de613e729f0481fc2beea49bd36a079c34ae1cf51613f46"},
	}
	for _, tc := range golden {
		sum, steps, procs, err := eventOrderHash(tc.seed)
		if err != nil {
			t.Errorf("seed %d: %v", tc.seed, err)
		}
		if steps < 2000 || procs < orderProcs {
			t.Errorf("seed %d: %d steps over %d processes, want >= 2000 over >= %d", tc.seed, steps, procs, orderProcs)
		}
		if sum != tc.sum {
			t.Errorf("seed %d: event order hash %s, want %s (%d steps, %d processes)", tc.seed, sum, tc.sum, steps, procs)
		}
	}
}
