package check_test

import (
	"testing"

	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/tas"
	"rme/internal/algorithms/ticket"
	"rme/internal/algorithms/watree"
	"rme/internal/check"
	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

func TestExhaustiveTASTwoProcs(t *testing.T) {
	res, err := check.Exhaustive(check.Config{
		Session: mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: tas.New()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Error("2-process TAS should be exhaustively coverable")
	}
	if res.Complete < 2 {
		t.Errorf("explored only %d schedules", res.Complete)
	}
}

func TestExhaustiveTicketThreeProcs(t *testing.T) {
	res, err := check.Exhaustive(check.Config{
		Session:      mutex.Config{Procs: 3, Width: 8, Model: sim.CC, Algorithm: ticket.New()},
		MaxSchedules: 30_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Complete == 0 {
		t.Error("no complete schedules explored")
	}
}

func TestExhaustiveRSpinWithCrashes(t *testing.T) {
	// Two processes, branching over every crash point (one crash each):
	// full coverage of the recoverable CAS lock's crash windows under every
	// interleaving.
	res, err := check.Exhaustive(check.Config{
		Session:        mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: rspin.New()},
		CrashesPerProc: 1,
		MaxSchedules:   100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Complete < 100 {
		t.Errorf("crash branching explored only %d schedules", res.Complete)
	}
}

func TestExhaustiveWATreeTwoProcsWithCrashes(t *testing.T) {
	res, err := check.Exhaustive(check.Config{
		Session:        mutex.Config{Procs: 2, Width: 4, Model: sim.CC, Algorithm: watree.New()},
		CrashesPerProc: 1,
		MaxSchedules:   40_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Complete == 0 {
		t.Error("no complete schedules")
	}
}

// brokenLock violates mutual exclusion; the checker must find it.
type brokenLock struct{}

func (brokenLock) Name() string      { return "broken" }
func (brokenLock) Recoverable() bool { return false }
func (brokenLock) Make(mem memory.Allocator, n int) (mutex.Instance, error) {
	return brokenInstance{c: mem.NewCell("c", memory.Shared, 0)}, nil
}

type brokenInstance struct{ c memory.Cell }

func (in brokenInstance) Bind(env memory.Env) mutex.Handle {
	return &brokenHandle{env: env, c: in.c}
}

type brokenHandle struct {
	mutex.Unrecoverable

	env memory.Env
	c   memory.Cell
}

func (h *brokenHandle) Lock()   { h.env.Read(h.c) }
func (h *brokenHandle) Unlock() { h.env.Read(h.c) }

// wedgingLock deadlocks whenever both processes pass the first gate.
type wedgingLock struct{}

func (wedgingLock) Name() string      { return "wedging" }
func (wedgingLock) Recoverable() bool { return false }
func (wedgingLock) Make(mem memory.Allocator, n int) (mutex.Instance, error) {
	return wedgingInstance{c: mem.NewCell("gate", memory.Shared, 0)}, nil
}

type wedgingInstance struct{ c memory.Cell }

func (in wedgingInstance) Bind(env memory.Env) mutex.Handle {
	return &wedgingHandle{env: env, c: in.c}
}

type wedgingHandle struct {
	mutex.Unrecoverable

	env memory.Env
	c   memory.Cell
}

func (h *wedgingHandle) Lock() {
	// Everyone increments, then waits for the count to drop to exactly 1 —
	// which never happens once two have incremented.
	h.env.Add(h.c, 1)
	h.env.SpinUntil(h.c, func(v word.Word) bool { return v == 1 })
}
func (h *wedgingHandle) Unlock() { h.env.Add(h.c, ^word.Word(0)) }

func TestExhaustiveFindsViolation(t *testing.T) {
	res, err := check.Exhaustive(check.Config{
		Session: mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: brokenLock{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("broken lock not caught")
	}
	if res.Err() == nil {
		t.Fatal("Err() should be non-nil")
	}
}

func TestExhaustiveFindsDeadlock(t *testing.T) {
	res, err := check.Exhaustive(check.Config{
		Session: mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: wedgingLock{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deadlocks) == 0 {
		t.Fatal("deadlock not caught")
	}
}

func TestTruncationReported(t *testing.T) {
	res, err := check.Exhaustive(check.Config{
		Session:      mutex.Config{Procs: 3, Width: 8, Model: sim.CC, Algorithm: ticket.New()},
		MaxSchedules: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("tiny cap should truncate")
	}
}
