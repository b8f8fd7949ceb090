package ticket_test

import (
	"testing"

	"rme/internal/algorithms/ticket"
	"rme/internal/algtest"
	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/sim"
)

func TestConformance(t *testing.T) {
	algtest.Run(t, ticket.New(), algtest.Options{})
}

func TestWidthValidation(t *testing.T) {
	mem, err := memory.NewNativeMem(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ticket.New().Make(mem, 8); err == nil {
		t.Error("8 processes on 3-bit words must be rejected (ticket 8 does not fit)")
	}
	if _, err := ticket.New().Make(mem, 7); err != nil {
		t.Errorf("7 processes on 3-bit words should work: %v", err)
	}
	if _, err := ticket.New().Make(mem, 0); err == nil {
		t.Error("0 processes must be rejected")
	}
}

func TestTicketWrapsAroundNarrowWords(t *testing.T) {
	// 4 processes on 3-bit words doing many passes: the ticket counters wrap
	// mod 8 repeatedly; FIFO order must survive the wraparound.
	s, err := mutex.NewSession(mutex.Config{
		Procs: 4, Width: 3, Model: sim.CC, Algorithm: ticket.New(), Passes: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RunRoundRobin(); err != nil {
		t.Fatal(err)
	}
	if v := s.Violations(); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestLinearWaitingCostCC(t *testing.T) {
	// Under CC accounting the ticket lock is Θ(contenders) per passage, not
	// O(1): every now-serving bump invalidates every waiter's cached copy,
	// so a waiter k positions back pays ~k re-probe misses. (The O(1)
	// conventional locks are the queue locks — see package mcs — which is
	// why the landscape experiment distinguishes them.) Bound the average
	// by a small multiple of n.
	for _, n := range []int{4, 8, 16} {
		s, err := mutex.NewSession(mutex.Config{
			Procs: n, Width: 16, Model: sim.CC, Algorithm: ticket.New(), Passes: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunRoundRobin(); err != nil {
			t.Fatal(err)
		}
		stats := s.Stats()
		total := 0
		for _, st := range stats {
			total += st.RMRsCC
		}
		avg := float64(total) / float64(len(stats))
		if avg > 2*float64(n) {
			t.Errorf("n=%d: avg CC RMRs per passage = %.1f, want <= 2n", n, avg)
		}
		if n >= 8 && avg < float64(n)/2 {
			t.Errorf("n=%d: avg CC RMRs per passage = %.1f — suspiciously below the Θ(n) waiting cost", n, avg)
		}
		s.Close()
	}
}

// TestFaultCampaign runs the default fault-injection campaign: crash-free
// seeded-random schedules judged by the invariant oracles, including the
// algorithm's RMR budget ceiling.
func TestFaultCampaign(t *testing.T) {
	algtest.Campaign(t, ticket.New(), 3, 8, sim.CC)
}

func TestNativeConformance(t *testing.T) {
	algtest.RunNative(t, ticket.New(), algtest.NativeOptions{})
}
