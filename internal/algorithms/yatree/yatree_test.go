package yatree_test

import (
	"testing"

	"rme/internal/algorithms/yatree"
	"rme/internal/algtest"
	"rme/internal/check"
	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/sim"
)

func TestConformance(t *testing.T) {
	// Unlike the CC-only Peterson tournament, yatree is exercised in both
	// models: its waiting is DSM-local by construction.
	algtest.Run(t, yatree.New(), algtest.Options{})
}

func TestWidthValidation(t *testing.T) {
	mem2, err := memory.NewNativeMem(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := yatree.New().Make(mem2, 4); err == nil {
		t.Error("4 processes on 2-bit words must be rejected (waiter ids)")
	}
	if _, err := yatree.New().Make(mem2, 3); err != nil {
		t.Errorf("3 processes on 2-bit words should work: %v", err)
	}
}

func TestDSMLocalSpinning(t *testing.T) {
	// The defining property: a waiting process performs remote operations
	// only for the Peterson announcements, registration, and wakeups —
	// Θ(log n) DSM RMRs per passage, not Θ(log n) per *handoff observed*.
	measure := func(n int) int {
		s, err := mutex.NewSession(mutex.Config{
			Procs: n, Width: 16, Model: sim.DSM, Algorithm: yatree.New(), Passes: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.RunRoundRobin(); err != nil {
			t.Fatal(err)
		}
		return s.MaxPassageRMRs(sim.DSM)
	}
	r4, r32 := measure(4), measure(32)
	// log2 32 / log2 4 = 2.5; allow constant slack, reject linear growth.
	if r32 > 4*r4 {
		t.Errorf("DSM RMRs grew superlogarithmically: %d (n=4) -> %d (n=32)", r4, r32)
	}
	if r32 < 5 {
		t.Errorf("n=32: max DSM passage RMRs %d suspiciously low for a 5-level tree", r32)
	}
}

func TestExhaustiveTwoProcs(t *testing.T) {
	// Full interleaving coverage of one Peterson node with the wakeup
	// handshake — the lost-wakeup races live here.
	res, err := check.Exhaustive(check.Config{
		Session:      mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: yatree.New(), Passes: 2},
		MaxSchedules: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Complete == 0 {
		t.Fatal("nothing explored")
	}
}

func TestExhaustiveThreeProcs(t *testing.T) {
	// Three processes exercise a two-level tree: internal-node sides are
	// teams, and stale waiter registrations from earlier passages become
	// possible.
	res, err := check.Exhaustive(check.Config{
		Session:      mutex.Config{Procs: 3, Width: 8, Model: sim.DSM, Algorithm: yatree.New()},
		MaxSchedules: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 9} {
		s, err := mutex.NewSession(mutex.Config{
			Procs: n, Width: 8, Model: sim.DSM, Algorithm: yatree.New(), Passes: 2,
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := s.RunRoundRobin(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		s.Close()
	}
}

// TestFaultCampaign runs the default fault-injection campaign: crash-free
// seeded-random schedules judged by the invariant oracles, including the
// algorithm's RMR budget ceiling.
func TestFaultCampaign(t *testing.T) {
	algtest.Campaign(t, yatree.New(), 3, 8, sim.CC)
}

func TestNativeConformance(t *testing.T) {
	algtest.RunNative(t, yatree.New(), algtest.NativeOptions{})
}
