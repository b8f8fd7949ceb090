package clh_test

import (
	"testing"

	"rme/internal/algorithms/clh"
	"rme/internal/algtest"
	"rme/internal/check"
	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/sim"
)

func TestConformance(t *testing.T) {
	algtest.Run(t, clh.New(), algtest.Options{})
}

func TestWidthValidation(t *testing.T) {
	mem, err := memory.NewNativeMem(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clh.New().Make(mem, 4); err == nil {
		t.Error("4 processes on 2-bit words must be rejected")
	}
	if _, err := clh.New().Make(mem, 3); err != nil {
		t.Errorf("3 processes on 2-bit words should work: %v", err)
	}
	mem1, err := memory.NewNativeMem(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clh.New().Make(mem1, 1); err == nil {
		t.Error("1-bit words cannot hold the grant states")
	}
}

func TestConstantRMRsPerPassage(t *testing.T) {
	// CLH spins on the predecessor's cell: constant CC RMRs per passage.
	// (In DSM that spin is remote, so CLH is only O(1) in CC — but our
	// park-based accounting charges one probe per change, keeping the DSM
	// number low too; the CC number is the meaningful one.)
	measure := func(n int) int {
		s, err := mutex.NewSession(mutex.Config{
			Procs: n, Width: 16, Model: sim.CC, Algorithm: clh.New(), Passes: 3,
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
	at4, at16 := measure(4), measure(16)
	if at16 > at4+1 {
		t.Errorf("CC RMRs per passage grew with n: %d (n=4) -> %d (n=16)", at4, at16)
	}
	if at16 > 10 {
		t.Errorf("CC RMRs per passage = %d, want a small constant", at16)
	}
}

func TestNodeReuseUnderStraggler(t *testing.T) {
	// The fixed-cell adaptation's crux: p0's successor (p1) may delay its
	// probe across several of p0's later passages; consumption-gated reuse
	// must keep them exclusive. Drive p0 through multiple passages while p1
	// is frozen mid-wait, then let p1 go; the monitors catch any overlap.
	s, err := mutex.NewSession(mutex.Config{
		Procs: 2, Width: 8, Model: sim.CC, Algorithm: clh.New(), Passes: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := s.Machine()

	// p0 acquires (arm-probe, arm-write, swap -> owner).
	for m.Tag(0) != mutex.TagCS {
		if _, err := s.StepProc(0); err != nil {
			t.Fatal(err)
		}
	}
	// p1 enqueues behind p0 and begins waiting.
	for i := 0; i < 4 && m.Poised(1); i++ {
		if _, err := s.StepProc(1); err != nil {
			t.Fatal(err)
		}
	}
	// Now freeze p1 and drive p0 as far as it can go: p0 must block trying
	// to re-arm its cell until p1 consumes the grant.
	for i := 0; i < 200 && m.Poised(0); i++ {
		if _, err := s.StepProc(0); err != nil {
			t.Fatal(err)
		}
	}
	if m.ProcDone(0) {
		t.Fatal("p0 finished all passages while its successor never consumed — reuse gate broken")
	}
	// Release the world; everything must complete without violations.
	if err := s.RunRoundRobin(); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustiveTwoProcs(t *testing.T) {
	res, err := check.Exhaustive(check.Config{
		Session:      mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: clh.New(), Passes: 2},
		MaxSchedules: 40_000,
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

// TestFaultCampaign runs the default fault-injection campaign: crash-free
// seeded-random schedules judged by the invariant oracles, including the
// algorithm's RMR budget ceiling.
func TestFaultCampaign(t *testing.T) {
	algtest.Campaign(t, clh.New(), 3, 8, sim.CC)
}

func TestNativeConformance(t *testing.T) {
	algtest.RunNative(t, clh.New(), algtest.NativeOptions{})
}
