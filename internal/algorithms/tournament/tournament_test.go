package tournament_test

import (
	"testing"

	"rme/internal/algorithms/tournament"
	"rme/internal/algtest"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

func TestConformance(t *testing.T) {
	algtest.Run(t, tournament.New(), algtest.Options{SkipDSM: true})
}

func TestNonPowerOfTwoProcs(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 9} {
		s, err := mutex.NewSession(mutex.Config{
			Procs: n, Width: 4, Model: sim.CC, Algorithm: tournament.New(), Passes: 2,
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

func TestLogarithmicRMRGrowthCC(t *testing.T) {
	// The tournament's worst-case CC RMRs per passage should scale like
	// log2(n), not n: it uses only reads and writes, the regime where the
	// paper's Θ(log n) bound [2, 23] applies.
	measure := func(n int) int {
		s, err := mutex.NewSession(mutex.Config{
			Procs: n, Width: 4, Model: sim.CC, Algorithm: tournament.New(), Passes: 2,
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
	r4, r32 := measure(4), measure(32)
	// log2 32 / log2 4 = 2.5; allow slack but reject linear growth (8x).
	if r32 > 4*r4 {
		t.Errorf("CC RMRs grew superlogarithmically: %d (n=4) -> %d (n=32)", r4, r32)
	}
	levels32 := word.CeilLog(2, 32)
	if r32 < levels32 {
		t.Errorf("n=32: max passage RMRs %d below tree depth %d — accounting suspicious", r32, levels32)
	}
}

func TestWorksAtWidthOne(t *testing.T) {
	// Flags and victims are 0/1, so the tournament runs on 1-bit words.
	s, err := mutex.NewSession(mutex.Config{
		Procs: 4, Width: 1, Model: sim.CC, Algorithm: tournament.New(), Passes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RunRoundRobin(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultCampaign runs the default fault-injection campaign: crash-free
// seeded-random schedules judged by the invariant oracles, including the
// algorithm's RMR budget ceiling.
func TestFaultCampaign(t *testing.T) {
	algtest.Campaign(t, tournament.New(), 3, 8, sim.CC)
}

func TestNativeConformance(t *testing.T) {
	algtest.RunNative(t, tournament.New(), algtest.NativeOptions{})
}
