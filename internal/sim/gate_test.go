package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"rme/internal/memory"
	"rme/internal/word"
)

// readLoop reads one cell forever: a steady one-step-per-resume body.
type readLoop struct{ c memory.Cell }

func (r readLoop) Run(p *Proc) {
	for {
		p.Read(r.c)
	}
}

func (r readLoop) Recover(p *Proc) { r.Run(p) }

// newReadLoopMachine builds an n-process machine whose bodies all spin
// reading one shared cell, plus the programs to Start it with.
func newReadLoopMachine(t testing.TB, n int) (*Machine, []Program) {
	t.Helper()
	m, err := New(Config{Procs: n, Width: 8, Model: CC, MaxSteps: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewCell("x", memory.Shared, 0)
	progs := make([]Program, n)
	for i := range progs {
		progs[i] = readLoop{c: c}
	}
	return m, progs
}

// mallocs counts the heap allocations of one call of f, the way
// testing.AllocsPerRun counts them for many.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestStepAllocFree gates the step gate's steady state: a granted step, its
// accounting and the coroutine round trip to the body's next announcement
// allocate nothing. The schedule buffer is grown by an earlier run and kept
// by Reset, so appends do not reallocate either.
func TestStepAllocFree(t *testing.T) {
	m, progs := newReadLoopMachine(t, 1)
	defer m.Close()
	const runs = 1000
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*runs; i++ {
		if _, err := m.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	m.Reset()
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := m.Step(0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Machine.Step allocates %v times per step, want 0", allocs)
	}
}

// TestResetAllocFree gates Reset of a machine killed mid-run: rolling cells
// back and unwinding every live body to its idle coroutine allocate nothing.
func TestResetAllocFree(t *testing.T) {
	m, progs := newReadLoopMachine(t, 8)
	defer m.Close()
	for cycle := 0; cycle < 20; cycle++ {
		if err := m.Start(progs); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < m.Procs(); p++ {
			if _, err := m.Step(p); err != nil {
				t.Fatal(err)
			}
		}
		if n := mallocs(m.Reset); n != 0 {
			t.Fatalf("cycle %d: Machine.Reset made %d allocations, want 0", cycle, n)
		}
	}
}

// TestResetCycleAllocs gates the reuse cycle the engine and the service
// layer run on every batch: Start, step each process once, Reset, on a
// machine whose killed bodies are resumed from their idle coroutines
// instead of being relaunched. The exact count is 0; any increase fails.
func TestResetCycleAllocs(t *testing.T) {
	const n = 256
	m, progs := newReadLoopMachine(t, n)
	defer m.Close()
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.Start(progs); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < n; p++ {
			if _, err := m.Step(p); err != nil {
				t.Fatal(err)
			}
		}
		m.Reset()
	})
	if allocs != 0 {
		t.Fatalf("Start/step/Reset cycle of %d processes: %v allocations, want exactly 0", n, allocs)
	}
}

// awaitGoroutines waits for the goroutine count to fall back to base; a
// coroutine's goroutine is gone as soon as its body returns, so the wait
// only absorbs unrelated runtime goroutines winding down.
func awaitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGoroutinesResetRestartClose(t *testing.T) {
	base := runtime.NumGoroutine()
	m, progs := newReadLoopMachine(t, 4)
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(2); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got != base+4 {
		t.Fatalf("running: %d goroutines, want %d (one per body)", got, base+4)
	}
	m.Reset()
	if got := runtime.NumGoroutine(); got != base+4 {
		t.Fatalf("after Reset: %d goroutines, want %d (killed bodies idle for reuse)", got, base+4)
	}
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got != base+4 {
		t.Fatalf("re-Start: %d goroutines, want %d (idle coroutines reused)", got, base+4)
	}
	m.Reset()
	m.Close()
	awaitGoroutines(t, base, "Reset then Close")
}

func TestGoroutinesCloseAfterResetWithoutStart(t *testing.T) {
	base := runtime.NumGoroutine()
	m, progs := newReadLoopMachine(t, 3)
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	m.Close()
	awaitGoroutines(t, base, "Close after Reset")
	m.Close() // idempotent
}

// crashInRecover counts its Recover entries in a cell and reads it again,
// so a crash can be delivered while Recover is running.
type crashInRecover struct{ c memory.Cell }

func (r crashInRecover) Run(p *Proc) {
	for {
		p.Read(r.c)
	}
}

func (r crashInRecover) Recover(p *Proc) {
	p.Add(r.c, 1)
	r.Run(p)
}

func TestGoroutinesCrashInRecoverThenKill(t *testing.T) {
	base := runtime.NumGoroutine()
	m, err := New(Config{Procs: 2, Width: 8, Model: CC})
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewCell("recoveries", memory.Shared, 0)
	progs := []Program{crashInRecover{c}, crashInRecover{c}}
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	// The first crash lands in Run; the second lands on Recover's Add.
	for i := 0; i < 2; i++ {
		if _, err := m.Crash(0); err != nil {
			t.Fatal(err)
		}
	}
	if op, _ := m.Pending(0); op.Op.Code != memory.OpAdd || m.Crashes(0) != 2 {
		t.Fatalf("p0 pending %v after %d crashes, want a Recover Add after 2", op.Op, m.Crashes(0))
	}
	m.Reset() // kills p0 inside Recover
	if got := runtime.NumGoroutine(); got != base+2 {
		t.Fatalf("after Reset: %d goroutines, want %d", got, base+2)
	}
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if v := m.Value(c); v != 0 {
		t.Fatalf("relaunched body ran Recover (recoveries=%d), want Run", v)
	}
	m.Close()
	awaitGoroutines(t, base, "crash in Recover, then kill")
}

// panicker fails with a non-sentinel panic after one step.
type panicker struct{ c memory.Cell }

func (b panicker) Run(p *Proc) {
	p.Read(b.c)
	panic("boom")
}

func (b panicker) Recover(p *Proc) { b.Run(p) }

func TestGoroutinesBodyPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	m, err := New(Config{Procs: 2, Width: 8, Model: CC})
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewCell("x", memory.Shared, 0)
	if err := m.Start([]Program{panicker{c}, readLoop{c}}); err != nil {
		t.Fatal(err)
	}
	_, err = m.Step(0)
	if err == nil || !strings.Contains(err.Error(), "sim: process 0 failed") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Step error = %v, want the body panic surfaced as a process failure", err)
	}
	if !m.ProcDone(0) {
		t.Fatal("failed process not marked done")
	}
	if got := runtime.NumGoroutine(); got != base+1 {
		t.Fatalf("after the panic: %d goroutines, want %d (the failed body's coroutine ended)", got, base+1)
	}
	m.Close()
	awaitGoroutines(t, base, "body panic, then Close")
}

// TestFinishedBodiesHoldNoGoroutine pins the Close contract from the other
// side: a machine whose bodies have all returned needs no Close.
func TestFinishedBodiesHoldNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	m, err := New(Config{Procs: 3, Width: 8, Model: CC})
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewCell("x", memory.Shared, 0)
	prog := ProgramFuncs{RunFunc: func(p *Proc) { p.Add(c, word.Word(1)) }}
	if err := m.Start([]Program{prog, prog, prog}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if _, err := m.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	if !m.AllDone() {
		t.Fatal("bodies did not finish")
	}
	awaitGoroutines(t, base, "all bodies finished, no Close")
}
