package check

// Checker self-tests: mutation testing of the checker itself. Each known-bad
// fixture in internal/faults must trip the matching verdict path in the
// exhaustive explorer (the faults package's kill table holds the same
// fixtures to its random campaign axis), and every reported
// counterexample must replay byte-identically on a fresh machine. A checker
// change that silently stops detecting violations fails here, not in the
// field.

import (
	"strings"
	"testing"

	"rme/internal/faults"
	"rme/internal/mutex"
	"rme/internal/sim"
)

// replaySchedule applies sched to a fresh session of cfg and returns it.
func replaySchedule(t *testing.T, cfg Config, sched sim.Schedule) *mutex.Session {
	t.Helper()
	scfg := cfg.withDefaults().Session
	s, err := mutex.NewSession(scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for i, act := range sched {
		if act.Crash {
			_, err = s.CrashProc(act.Proc)
		} else {
			_, err = s.StepProc(act.Proc)
		}
		if err != nil {
			t.Fatalf("replaying action %d of %s: %v", i, sched, err)
		}
	}
	// Byte-identical replay: the machine's own record of what ran must match
	// the counterexample exactly.
	if got := s.Machine().Schedule().String(); got != sched.String() {
		t.Fatalf("replayed schedule %q, want %q", got, sched)
	}
	return s
}

// checkViolationReplay verifies that r carries at least one violation with a
// structured schedule that reproduces a monitor violation when replayed.
func checkViolationReplay(t *testing.T, cfg Config, r *Result) {
	t.Helper()
	if len(r.Violations) == 0 || len(r.ViolationSchedules) == 0 {
		t.Fatalf("no violation reported: %+v", r)
	}
	if len(r.Violations) != len(r.ViolationSchedules) {
		t.Fatalf("%d violation messages but %d schedules", len(r.Violations), len(r.ViolationSchedules))
	}
	s := replaySchedule(t, cfg, r.ViolationSchedules[0])
	if v := s.Violations(); len(v) == 0 {
		t.Fatalf("schedule %s does not reproduce a violation", r.ViolationSchedules[0])
	}
}

// checkDeadlockReplay verifies r's first deadlock schedule wedges a fresh
// machine: no process poised, not all done.
func checkDeadlockReplay(t *testing.T, cfg Config, r *Result) {
	t.Helper()
	if len(r.Deadlocks) == 0 || len(r.DeadlockSchedules) == 0 {
		t.Fatalf("no deadlock reported: %+v", r)
	}
	if len(r.Deadlocks) != len(r.DeadlockSchedules) {
		t.Fatalf("%d deadlock messages but %d schedules", len(r.Deadlocks), len(r.DeadlockSchedules))
	}
	s := replaySchedule(t, cfg, r.DeadlockSchedules[0])
	if m := s.Machine(); !m.Stuck() {
		t.Fatalf("schedule %s does not wedge the machine", r.DeadlockSchedules[0])
	}
}

func brokenTicketConfig() Config {
	return Config{
		Session: mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: faults.NewBrokenTicket()},
		Memo:    true,
		POR:     true,
	}
}

func wedgingConfig() Config {
	return Config{
		Session: mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: faults.NewWedgingTAS()},
		Memo:    true,
		POR:     true,
	}
}

func brokenTASConfig() Config {
	return Config{
		Session:        mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: faults.BrokenTAS{}},
		CrashesPerProc: 1,
		Memo:           true,
		POR:            true,
	}
}

func TestExhaustiveFlagsBrokenTicket(t *testing.T) {
	cfg := brokenTicketConfig()
	r, err := Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ok() {
		t.Fatal("exhaustive search missed the broken ticket lock")
	}
	checkViolationReplay(t, cfg, r)
	if !strings.Contains(r.Violations[0], "[schedule ") {
		t.Fatalf("violation message lacks schedule: %q", r.Violations[0])
	}
}

func TestExhaustiveFlagsWedgingTAS(t *testing.T) {
	cfg := wedgingConfig()
	r, err := Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Deadlocks) == 0 {
		t.Fatal("exhaustive search missed the wedging TAS deadlock")
	}
	if len(r.Violations) != 0 {
		t.Fatalf("wedging TAS violates nothing, got %v", r.Violations)
	}
	checkDeadlockReplay(t, cfg, r)
}

func TestExhaustiveFlagsBrokenTASUnderCrashes(t *testing.T) {
	cfg := brokenTASConfig()
	r, err := Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ok() {
		t.Fatal("exhaustive search missed the crash-unsafe TAS")
	}
	if len(r.ViolationSchedules) > 0 {
		checkViolationReplay(t, cfg, r)
	} else {
		checkDeadlockReplay(t, cfg, r)
	}
}
