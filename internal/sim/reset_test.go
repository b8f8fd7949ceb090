package sim

import (
	"fmt"
	"strings"
	"testing"

	"rme/internal/memory"
	"rme/internal/word"
)

// resetProg is a small recoverable lock loop: acquire a CAS lock (spinning
// when contended), bump a counter, release. Recover restarts the body from
// scratch, keeping all state in shared cells, per the Program contract. It
// exercises every trace path: steps, spins, parks, wakes, and crashes.
type resetProg struct {
	lock, counter memory.Cell
	id            int
	rounds        int
}

func (r resetProg) Run(p *Proc) { r.body(p) }

func (r resetProg) Recover(p *Proc) { r.body(p) }

func (r resetProg) body(p *Proc) {
	me := word.Word(r.id + 1)
	for word.Word(p.Read(r.counter)) < word.Word(r.rounds) {
		for p.CAS(r.lock, 0, me) != 0 {
			p.SpinUntil(r.lock, func(v word.Word) bool { return v == 0 })
		}
		p.Add(r.counter, 1)
		p.Write(r.lock, 0)
	}
}

// buildResetPrograms allocates the shared cells for resetProg on m and
// returns one program per process. Allocation order is fixed, so two
// machines built by this function have identical constructions.
func buildResetPrograms(m *Machine, rounds int) []Program {
	lock := m.NewCell("lock", memory.Shared, 0)
	counter := m.NewCell("counter", 0, 0)
	progs := make([]Program, m.Procs())
	for i := range progs {
		progs[i] = resetProg{lock: lock, counter: counter, id: i, rounds: rounds}
	}
	return progs
}

// driveWithCrash runs the machine round-robin, delivering a crash step to
// crashProc the moment the schedule reaches crashAt actions (if it still has
// a pending operation then). The decision sequence is a pure function of
// machine state, so two equivalent machines make identical choices.
func driveWithCrash(t *testing.T, m *Machine, crashProc, crashAt int) {
	t.Helper()
	crashed := false
	for !m.AllDone() {
		if !crashed && m.Steps() >= crashAt && !m.ProcDone(crashProc) {
			if _, ok := m.Pending(crashProc); ok {
				if _, err := m.Crash(crashProc); err != nil {
					t.Fatalf("crash p%d: %v", crashProc, err)
				}
				crashed = true
				continue
			}
		}
		poised := m.PoisedProcs()
		if len(poised) == 0 {
			t.Fatal("machine stuck")
		}
		if _, err := m.Step(poised[0]); err != nil {
			t.Fatalf("step p%d: %v", poised[0], err)
		}
	}
}

// fingerprint renders everything the equivalence guarantee covers — the
// full trace (the run's observed events), the schedule, both RMR counters, step and crash counts, and
// final cell values — as one string for byte-identical comparison.
func fingerprint(m *Machine, events []Event) string {
	var b strings.Builder
	for _, ev := range events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "schedule: %s\n", m.Schedule())
	fmt.Fprintf(&b, "procs: %v\n", m.Schedule().Procs())
	for p := 0; p < m.Procs(); p++ {
		fmt.Fprintf(&b, "p%d: cc=%d dsm=%d steps=%d crashes=%d\n",
			p, m.RMRsIn(CC, p), m.RMRsIn(DSM, p), m.ProcSteps(p), m.Crashes(p))
	}
	for _, c := range m.Cells() {
		fmt.Fprintf(&b, "cell %s = %d (last %d)\n", c.Label(), m.Value(c), m.LastAccessor(c))
	}
	return b.String()
}

// TestResetEquivalence is the reset-reuse guarantee: a machine that is
// Reset and re-Started replays byte-identical traces, schedules, and CC/DSM
// RMR counters versus a fresh machine — including a crash step mid-run.
func TestResetEquivalence(t *testing.T) {
	const procs, rounds, crashAt = 3, 4, 7
	for _, model := range []Model{CC, DSM} {
		t.Run(model.String(), func(t *testing.T) {
			run := func(m *Machine, progs []Program) string {
				obs := observe(m)
				if err := m.Start(progs); err != nil {
					t.Fatal(err)
				}
				driveWithCrash(t, m, 1, crashAt)
				return fingerprint(m, obs.events)
			}

			fresh := newTestMachineModel(t, procs, model)
			want := run(fresh, buildResetPrograms(fresh, rounds))

			reused := newTestMachineModel(t, procs, model)
			progs := buildResetPrograms(reused, rounds)
			first := run(reused, progs)
			if first != want {
				t.Fatalf("fresh machines diverge:\n--- a ---\n%s--- b ---\n%s", want, first)
			}
			// Several reset-replay cycles on the same machine, same cells,
			// same program values.
			for cycle := 0; cycle < 3; cycle++ {
				reused.Reset()
				if got := run(reused, progs); got != want {
					t.Fatalf("reset cycle %d diverges from fresh run:\n--- fresh ---\n%s--- reset ---\n%s",
						cycle, want, got)
				}
			}
		})
	}
}

// TestResetMidRun abandons an execution partway (processes parked and
// poised, one crashed), resets, and checks the replay still matches fresh.
func TestResetMidRun(t *testing.T) {
	const procs, rounds = 4, 3
	fresh := newTestMachineModel(t, procs, CC)
	want := func() string {
		obs := observe(fresh)
		if err := fresh.Start(buildResetPrograms(fresh, rounds)); err != nil {
			t.Fatal(err)
		}
		driveWithCrash(t, fresh, 2, 5)
		return fingerprint(fresh, obs.events)
	}()

	m := newTestMachineModel(t, procs, CC)
	progs := buildResetPrograms(m, rounds)
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	// Partial drive: a handful of steps and a crash, then abandon.
	for i := 0; i < 9; i++ {
		if poised := m.PoisedProcs(); len(poised) > 0 {
			if _, err := m.Step(poised[i%len(poised)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, ok := m.Pending(3); ok {
		if _, err := m.Crash(3); err != nil {
			t.Fatal(err)
		}
	}

	m.Reset()
	obs := observe(m)
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	driveWithCrash(t, m, 2, 5)
	if got := fingerprint(m, obs.events); got != want {
		t.Fatalf("reset-after-abandon diverges:\n--- fresh ---\n%s--- reset ---\n%s", want, got)
	}
}

// TestResetSealsAllocation: cells cannot be added after a machine has been
// constructed once; the reset construction must be identical to the fresh
// one.
func TestResetSealsAllocation(t *testing.T) {
	m := newTestMachineModel(t, 1, CC)
	c := m.NewCell("c", memory.Shared, 0)
	if err := m.Start([]Program{ProgramFuncs{RunFunc: func(p *Proc) { p.Read(c) }}}); err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, m)
	m.Reset()
	defer func() {
		if recover() == nil {
			t.Fatal("NewCell after Reset did not panic")
		}
	}()
	m.NewCell("late", memory.Shared, 0)
}

// TestResetAfterClose: Close then Reset then Start is a valid reuse cycle.
func TestResetAfterClose(t *testing.T) {
	m := newTestMachineModel(t, 2, CC)
	progs := buildResetPrograms(m, 2)
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		stepAll(t, m)
	}
	m.Close()
	m.Reset()
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, m)
	// Both processes may observe counter < rounds before the final bump, so
	// the counter ends in [rounds, rounds+procs-1].
	if v := m.Value(m.CellByID(1)); v < 2 || v > 3 {
		t.Fatalf("counter = %d after reuse, want 2 or 3", v)
	}
}

func newTestMachineModel(t *testing.T, procs int, model Model) *Machine {
	t.Helper()
	m, err := New(Config{Procs: procs, Width: 16, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}
