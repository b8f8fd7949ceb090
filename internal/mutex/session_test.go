package mutex_test

import (
	"runtime"
	"testing"
	"time"

	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/tas"
	"rme/internal/algorithms/ticket"
	"rme/internal/mutex"
	"rme/internal/sim"
)

func TestCrashAllProcs(t *testing.T) {
	s, err := mutex.NewSession(mutex.Config{
		Procs: 4, Width: 8, Model: sim.CC, Algorithm: rspin.New(), Passes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := s.Machine()

	// Let the system make some progress, then crash everyone at once.
	for i := 0; i < 10; i++ {
		poised := m.PoisedProcs()
		if len(poised) == 0 {
			t.Fatal("stuck early")
		}
		if _, err := s.StepProc(poised[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CrashAllProcs(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if m.Crashes(p) != 1 {
			t.Errorf("p%d crashes = %d, want 1", p, m.Crashes(p))
		}
	}
	if err := s.RunRoundRobin(); err != nil {
		t.Fatal(err)
	}
	if v := s.Violations(); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestCrashAllProcsRefusedForConventional(t *testing.T) {
	s, err := mutex.NewSession(mutex.Config{
		Procs: 2, Width: 8, Model: sim.CC, Algorithm: tas.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CrashAllProcs(); err == nil {
		t.Fatal("system-wide crash of a non-recoverable algorithm must be refused")
	}
}

func TestCSOrderRecordsEveryAcquisition(t *testing.T) {
	const n, passes = 3, 2
	s, err := mutex.NewSession(mutex.Config{
		Procs: n, Width: 8, Model: sim.CC, Algorithm: ticket.New(), Passes: passes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RunRoundRobin(); err != nil {
		t.Fatal(err)
	}
	order := s.CSOrder()
	if len(order) != n*passes {
		t.Fatalf("CS order has %d entries, want %d", len(order), n*passes)
	}
	counts := make(map[int]int)
	for _, p := range order {
		counts[p]++
	}
	for p := 0; p < n; p++ {
		if counts[p] != passes {
			t.Errorf("p%d acquired %d times, want %d", p, counts[p], passes)
		}
	}
}

func TestCSOrderNotDoubledByCrashReentry(t *testing.T) {
	s, err := mutex.NewSession(mutex.Config{
		Procs: 2, Width: 8, Model: sim.CC, Algorithm: rspin.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := s.Machine()
	for m.Tag(0) != mutex.TagCS {
		if _, err := s.StepProc(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.CrashProc(0); err != nil {
		t.Fatal(err)
	}
	if err := s.RunRoundRobin(); err != nil {
		t.Fatal(err)
	}
	order := s.CSOrder()
	if len(order) != 2 {
		t.Fatalf("CS order = %v: a crashed holder's re-entry must not double-count", order)
	}
}

// TestCompletedSessionHoldsNoGoroutine runs sessions to completion, with a
// crash and a Reset reuse on the way, and drops them without Close: a
// finished body ends its coroutine, so nothing may be left running.
func TestCompletedSessionHoldsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		s, err := mutex.NewSession(mutex.Config{
			Procs: 3, Width: 8, Model: sim.CC, Algorithm: rspin.New(), Passes: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.CrashProc(1); err != nil {
			t.Fatal(err)
		}
		if err := s.RunRoundRobin(); err != nil {
			t.Fatal(err)
		}
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		if err := s.RunRoundRobin(); err != nil {
			t.Fatal(err)
		}
		if !s.Machine().AllDone() {
			t.Fatal("session did not run to completion")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after completed sessions, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
