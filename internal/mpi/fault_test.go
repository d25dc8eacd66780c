package mpi

import (
	"errors"
	"testing"
	"time"

	"repro/internal/des"
)

// twoRankWorld builds a world with two single-rank programs.
func twoRankWorld(a, b func(r *Rank)) *World {
	return NewWorld(DefaultConfig(),
		Program{Name: "a", Procs: 1, Main: a},
		Program{Name: "b", Procs: 1, Main: b},
	)
}

func TestSendCheckedToFailedRank(t *testing.T) {
	var gotErr error
	w := twoRankWorld(
		func(r *Rank) {
			r.Compute(10 * time.Millisecond)
			gotErr = r.SendChecked(r.World().Universe(), 1, 7, 64, nil)
		},
		func(r *Rank) {
			r.Compute(time.Hour)
		},
	)
	w.FailRank(des.DurationToTime(time.Millisecond), 1)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var rf *RankFailedError
	if !errors.As(gotErr, &rf) || rf.Rank != 1 {
		t.Fatalf("err = %v, want RankFailedError{Rank:1}", gotErr)
	}
}

func TestSsendReleasedByPeerCrash(t *testing.T) {
	// A synchronous sender whose peer dies before matching must be
	// released, not stranded.
	done := false
	w := twoRankWorld(
		func(r *Rank) {
			r.Ssend(r.World().Universe(), 1, 7, 64, nil)
			done = true
		},
		func(r *Rank) { r.Compute(time.Hour) }, // never posts the receive
	)
	w.FailRank(des.DurationToTime(time.Millisecond), 1)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("synchronous sender stranded by peer crash")
	}
}

func TestLegacyRecvFromFailedPeerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("legacy Recv from a crashed peer should fail loudly")
		}
	}()
	w := twoRankWorld(
		func(r *Rank) {
			r.Compute(10 * time.Millisecond)
			r.Recv(r.World().Universe(), 1, 7)
		},
		func(r *Rank) { r.Compute(time.Hour) },
	)
	w.FailRank(des.DurationToTime(time.Millisecond), 1)
	_ = w.Run()
}
