//go:build go1.23

package sim

import (
	"errors"
	"fmt"
	"iter"

	"rme/internal/memory"
	"rme/internal/word"
)

// Proc is one simulated process. It implements memory.Env for the algorithm
// code running in its body coroutine (an iter.Pull coroutine over runLoop);
// every Env call yields at the step gate until the controller resumes it
// with a verdict (a granted step's result, a crash, or a kill).
//
// Proc methods fall into two groups:
//
//   - Env methods and Mark/SetTag: callable only from the body;
//   - everything else is controller-side and lives on Machine.
type Proc struct {
	id      int
	m       *Machine
	program Program

	// The body coroutine. next resumes it until its next announcement
	// (reported false once the program has returned, which ends the
	// coroutine); stop ends it. Both are nil while no coroutine exists.
	// yield is the body's side of the handoff.
	next  func() (stepReq, bool)
	stop  func()
	yield func(stepReq) bool

	// verdict is the controller's answer to the last announcement, written
	// before the body is resumed.
	verdict verdict

	// Controller-side state; only touched while the body is suspended.
	// pending points at req while an announcement awaits a verdict; keeping
	// the request in the Proc keeps the step path allocation-free.
	req     stepReq
	pending *stepReq
	parked  bool
	done    bool
	err     error
	crashes int
	steps   int
	rmrCC   int
	rmrDSM  int
	tag     int
}

var _ memory.Env = (*Proc)(nil)

// stepReq is an announced shared-memory operation or a multi-cell wait.
type stepReq struct {
	cell *simCell
	op   memory.Op
	spin func(word.Word) bool // non-nil for SpinUntil probes

	// Multi-cell wait (SpinUntilMulti): no step is taken; the process parks
	// until multiPred holds for the watched cells' values.
	multi     []*simCell
	multiPred func([]word.Word) bool
}

// isWait reports whether the request is a multi-cell wait (not a step).
func (r *stepReq) isWait() bool { return r.multi != nil }

// verdict is the controller's response to an announced operation.
type verdict struct {
	ret   word.Word
	vals  []word.Word // SpinUntilMulti results
	crash bool
	kill  bool
}

// Sentinels unwinding the body.
var (
	errCrashed = errors.New("sim: crash step")
	errKilled  = errors.New("sim: killed")
)

// newProc makes a process with no body yet; it counts as done until its
// first launch, so no kill or close waits on it.
func newProc(m *Machine, id int) *Proc {
	return &Proc{id: id, m: m, done: true}
}

// reset prepares the process for a (re-)launch: the program is installed and
// all controller-side state and counters clear. An idle coroutine left by a
// kill is kept for the launch to reuse.
func (p *Proc) reset(program Program) {
	p.program = program
	p.pending = nil
	p.parked = false
	p.done = false
	p.err = nil
	p.crashes = 0
	p.steps = 0
	p.rmrCC = 0
	p.rmrDSM = 0
	p.tag = 0
}

// launch makes the body coroutine if the process has none (first launch, or
// the previous program finished and ended its coroutine). The controller
// must waitQuiescent immediately after: that first resume starts the
// program, either at the top of a new coroutine or from the idle yield a
// killed body left in runLoop.
func (p *Proc) launch() {
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.runLoop)
	}
}

// kill unwinds a live body to the idle yield in runLoop, leaving the
// coroutine for the next launch.
func (p *Proc) kill() {
	p.verdict = verdict{kill: true}
	if _, ok := p.next(); !ok {
		p.ended() // the unwind failed (p.err is set) and ended the coroutine
	}
	p.done = true
}

// close ends the body coroutine, if any: a suspended body unwinds as if
// killed, and the coroutine returns instead of idling.
func (p *Proc) close() {
	if p.stop != nil {
		p.stop()
	}
	p.ended()
}

// ended marks the process done once its coroutine has returned, dropping
// the handles so that the next launch makes a new one.
func (p *Proc) ended() {
	p.next, p.stop, p.yield = nil, nil, nil
	p.done = true
}

type bodyOutcome int

const (
	outcomeFinished bodyOutcome = iota + 1
	outcomeCrashed
	outcomeKilled
)

// runLoop is the body coroutine. It runs the program, restarting with
// Recover after each crash step. A program that returns (or fails, with
// p.err set) ends the coroutine, so a finished process holds no goroutine.
// A killed program unwinds to the idle yield here, where the coroutine waits
// for the next launch's program, or for stop.
func (p *Proc) runLoop(yield func(stepReq) bool) {
	p.yield = yield
	recovering := false
	for {
		switch p.runOnce(recovering) {
		case outcomeFinished:
			return
		case outcomeCrashed:
			recovering = true
		case outcomeKilled:
			if !yield(stepReq{}) {
				return
			}
			recovering = false
		}
	}
}

// runOnce executes Run or Recover, translating the unwind sentinels.
// Non-sentinel panics are recorded as process failures and surfaced by the
// controller; they indicate bugs in algorithm code.
func (p *Proc) runOnce(recovering bool) (outcome bodyOutcome) {
	defer func() {
		r := recover()
		switch r {
		case nil:
		case errCrashed:
			outcome = outcomeCrashed
		case errKilled:
			outcome = outcomeKilled
		default:
			p.err = fmt.Errorf("panic in process %d body: %v", p.id, r)
			outcome = outcomeFinished
		}
	}()
	if recovering {
		p.program.Recover(p)
	} else {
		p.program.Run(p)
	}
	return outcomeFinished
}

// announce suspends the body at the step gate and returns the granted
// result. A false yield means the coroutine is being stopped.
func (p *Proc) announce(req stepReq) word.Word {
	if !p.yield(req) || p.verdict.kill {
		panic(errKilled)
	}
	if p.verdict.crash {
		panic(errCrashed)
	}
	return p.verdict.ret
}

// cell resolves a memory.Cell to this machine's representation.
func (p *Proc) cell(c memory.Cell) *simCell { return p.m.own(c) }

// --- memory.Env --------------------------------------------------------------

// ID returns the process id.
func (p *Proc) ID() int { return p.id }

// Width returns the machine word size.
func (p *Proc) Width() word.Width { return p.m.cfg.Width }

// Read performs an atomic read step.
func (p *Proc) Read(c memory.Cell) word.Word {
	return p.announce(stepReq{cell: p.cell(c), op: memory.Read()})
}

// Write performs an atomic write step.
func (p *Proc) Write(c memory.Cell, v word.Word) {
	p.announce(stepReq{cell: p.cell(c), op: memory.Write(v)})
}

// Swap performs an atomic fetch-and-store step.
func (p *Proc) Swap(c memory.Cell, v word.Word) word.Word {
	return p.announce(stepReq{cell: p.cell(c), op: memory.Swap(v)})
}

// Add performs an atomic fetch-and-add step.
func (p *Proc) Add(c memory.Cell, d word.Word) word.Word {
	return p.announce(stepReq{cell: p.cell(c), op: memory.Add(d)})
}

// CAS performs an atomic compare-and-swap step, returning the prior value.
func (p *Proc) CAS(c memory.Cell, expected, replacement word.Word) word.Word {
	return p.announce(stepReq{cell: p.cell(c), op: memory.CAS(expected, replacement)})
}

// Apply performs an arbitrary atomic operation step.
func (p *Proc) Apply(c memory.Cell, op memory.Op) word.Word {
	return p.announce(stepReq{cell: p.cell(c), op: op})
}

// SpinUntil busy-waits until pred holds for c's value, and returns that
// value. Each probe is a read step; failed probes park the process until the
// cell is next touched by a non-read operation, so RMR accounting matches the
// local-spin rules of both models and controllers never need to schedule
// unproductive spinning.
func (p *Proc) SpinUntil(c memory.Cell, pred func(word.Word) bool) word.Word {
	return p.announce(stepReq{cell: p.cell(c), op: memory.Read(), spin: pred})
}

// SpinUntilMulti blocks until pred holds for the values of all given cells
// (evaluated atomically at registration and after every non-read operation on
// any of them) and returns those values. It models a CC process spinning
// locally on several cached locations at once: the wait itself takes no
// steps, and each recheck triggered by an invalidation is charged one RMR
// against the touched cell (a cache-miss re-read), mirroring the CC cost of
// the spin loop it replaces. In the DSM model a recheck is charged iff the
// touched cell is remote — algorithms that need DSM-local spinning should
// spin on a single local cell with SpinUntil instead.
func (p *Proc) SpinUntilMulti(cells []memory.Cell, pred func([]word.Word) bool) []word.Word {
	scs := make([]*simCell, len(cells))
	for i, c := range cells {
		scs[i] = p.cell(c)
	}
	v := p.announceWait(stepReq{multi: scs, multiPred: pred})
	return v
}

// announceWait submits a multi-cell wait and returns the satisfying values.
func (p *Proc) announceWait(req stepReq) []word.Word {
	p.announce(req)
	return p.verdict.vals
}

// --- body annotations ---------------------------------------------------------

// Mark records an annotation event in the trace. It is not a step: it does
// not consume a scheduling action and is invisible to the algorithm.
func (p *Proc) Mark(note string) {
	p.m.seq++
	p.m.record(Event{Seq: p.m.seq, Kind: EvMark, Proc: p.id, Note: note})
}

// SetTag publishes a small integer annotation readable by the controller via
// Machine.Tag (the mutex driver uses it to expose entry/CS/exit phases to the
// mutual-exclusion monitor).
func (p *Proc) SetTag(tag int) { p.tag = tag }

// RMRCount returns the process's RMR count under the given model. It is safe
// from the body (between steps) and from the controller.
func (p *Proc) RMRCount(m Model) int {
	if m == DSM {
		return p.rmrDSM
	}
	return p.rmrCC
}

// StepCount returns the number of shared-memory steps the process has
// executed (crash steps excluded).
func (p *Proc) StepCount() int { return p.steps }
