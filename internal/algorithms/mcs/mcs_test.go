package mcs_test

import (
	"testing"

	"rme/internal/algorithms/mcs"
	"rme/internal/algtest"
	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/sim"
)

func TestConformance(t *testing.T) {
	algtest.Run(t, mcs.New(), algtest.Options{})
}

func TestWidthValidation(t *testing.T) {
	mem, err := memory.NewNativeMem(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mcs.New().Make(mem, 4); err == nil {
		t.Error("4 processes on 2-bit words must be rejected (id 4 does not fit)")
	}
	if _, err := mcs.New().Make(mem, 3); err != nil {
		t.Errorf("3 processes on 2-bit words should work: %v", err)
	}
}

func TestConstantDSMRMRs(t *testing.T) {
	// MCS spins only on cells in the spinner's own segment, so the maximum
	// DSM RMRs per passage must be a small constant independent of n.
	maxAt := func(n int) int {
		s, err := mutex.NewSession(mutex.Config{
			Procs: n, Width: 16, Model: sim.DSM, Algorithm: mcs.New(), Passes: 3,
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
	at4, at16 := maxAt(4), maxAt(16)
	if at16 > at4+1 {
		t.Errorf("DSM RMRs per passage grew with n: %d (n=4) -> %d (n=16)", at4, at16)
	}
	// The constant itself: swap + link + handoff reads/writes + CS step.
	if at16 > 8 {
		t.Errorf("DSM RMRs per passage = %d, want a small constant (<= 8)", at16)
	}
}

func TestFIFOOrderUnderLockstep(t *testing.T) {
	// Drive three processes so they enqueue in the order 2, 0, 1 and verify
	// the CS is granted in exactly that order, which is MCS's FIFO property.
	s, err := mutex.NewSession(mutex.Config{
		Procs: 3, Width: 8, Model: sim.CC, Algorithm: mcs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := s.Machine()

	var order []int
	seen := map[int]bool{}
	scan := func() {
		for p := 0; p < 3; p++ {
			if m.Tag(p) == mutex.TagCS && !seen[p] {
				seen[p] = true
				order = append(order, p)
			}
		}
	}

	// Each process's first three steps are: write next, write locked, swap
	// tail. Advance them past the swap in enqueue order 2, 0, 1. (p2 has no
	// predecessor, so its Lock returns right after the swap.)
	for _, p := range []int{2, 0, 1} {
		for i := 0; i < 3; i++ {
			if _, err := s.StepProc(p); err != nil {
				t.Fatal(err)
			}
			scan()
		}
	}
	for !m.AllDone() {
		poised := m.PoisedProcs()
		if len(poised) == 0 {
			t.Fatal("stuck")
		}
		for _, p := range poised {
			if m.ProcDone(p) || !m.Poised(p) {
				continue
			}
			if _, err := s.StepProc(p); err != nil {
				t.Fatal(err)
			}
			scan()
		}
	}
	if len(order) != 3 || order[0] != 2 || order[1] != 0 || order[2] != 1 {
		t.Errorf("CS order = %v, want [2 0 1]", order)
	}
}

// TestFaultCampaign runs the default fault-injection campaign: crash-free
// seeded-random schedules judged by the invariant oracles, including the
// algorithm's RMR budget ceiling.
func TestFaultCampaign(t *testing.T) {
	algtest.Campaign(t, mcs.New(), 3, 8, sim.CC)
}

func TestNativeConformance(t *testing.T) {
	algtest.RunNative(t, mcs.New(), algtest.NativeOptions{})
}
