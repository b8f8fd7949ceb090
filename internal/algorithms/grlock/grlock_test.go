package grlock_test

import (
	"strings"
	"testing"

	"rme/internal/algorithms/grlock"
	"rme/internal/algtest"
	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/sim"
)

func TestConformance(t *testing.T) {
	algtest.Run(t, grlock.New(), algtest.Options{})
}

func TestWidthValidation(t *testing.T) {
	mem, err := memory.NewNativeMem(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grlock.New().Make(mem, 3); err == nil {
		t.Error("3 processes on 2-bit words must be rejected (ticket headroom)")
	}
	if _, err := grlock.New().Make(mem, 2); err != nil {
		t.Errorf("2 processes on 2-bit words should work: %v", err)
	}
}

func TestLinearRMRGrowth(t *testing.T) {
	// grlock scans all n rivals per passage, so its RMR complexity is Θ(n) —
	// the shape of the first RME algorithm [12] in the paper's landscape.
	measure := func(n int) int {
		s, err := mutex.NewSession(mutex.Config{
			Procs: n, Width: 16, Model: sim.CC, Algorithm: grlock.New(), Passes: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.RunRoundRobin(); err != nil {
			t.Fatal(err)
		}
		return s.MaxPassageRMRs(sim.CC)
	}
	r4, r16 := measure(4), measure(16)
	if r16 < 16 {
		t.Errorf("n=16: max passage RMRs = %d, expected at least n (full scan)", r16)
	}
	if r16 <= r4 {
		t.Errorf("RMRs did not grow with n: %d (n=4) vs %d (n=16)", r4, r16)
	}
}

func TestTicketOverflowPanicsClearly(t *testing.T) {
	// With a 3-bit word, tickets above 7 overflow. Sequential (uncontended)
	// passages keep tickets at 1, so this needs real overlap: run many
	// random-schedule passes and accept either success or the documented
	// overflow failure — what must never happen is a silent wrap violating
	// mutual exclusion.
	for seed := int64(0); seed < 10; seed++ {
		s, err := mutex.NewSession(mutex.Config{
			Procs: 4, Width: 3, Model: sim.CC, Algorithm: grlock.New(), Passes: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		err = s.RunRandom(seed)
		if err != nil && !isOverflow(err) {
			t.Fatalf("seed %d: unexpected failure: %v", seed, err)
		}
		if v := s.Violations(); len(v) > 0 {
			t.Fatalf("seed %d: mutual exclusion violated: %v", seed, v)
		}
		s.Close()
	}
}

func isOverflow(err error) bool {
	return err != nil && strings.Contains(err.Error(), "overflows")
}

// TestFaultCampaign runs the default fault-injection campaign — systematic
// and seeded-random crash placement judged by the invariant oracles,
// including the algorithm's RMR budget ceiling — under both cost models.
func TestFaultCampaign(t *testing.T) {
	algtest.Campaign(t, grlock.New(), 3, 8, sim.CC)
	algtest.Campaign(t, grlock.New(), 3, 8, sim.DSM)
}

func TestNativeConformance(t *testing.T) {
	algtest.RunNative(t, grlock.New(), algtest.NativeOptions{})
}
