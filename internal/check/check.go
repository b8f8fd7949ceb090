// Package check verifies mutual exclusion algorithms by stateful
// bounded-exhaustive interleaving exploration, on top of the per-step safety
// monitors of package mutex. Randomized schedules and crash storms are the
// faults package's RandomCrashes campaign axis.
//
// The exhaustive explorer enumerates scheduler decisions (which poised
// process steps next; optionally, whether it crashes instead) by depth-first
// search. Unlike a stateless schedule-prefix search, the explorer is
// incremental: it steps a live machine forward along the current branch and
// restores on backtrack from a checkpoint stack of trailing sessions,
// replaying prefixes only across snapshot gaps. With Memo it fingerprints
// every canonical state (sim.Machine.Fingerprint mixed with the monitor's CS
// ownership) and prunes interleavings that converge on a visited state; with
// POR it additionally skips sleep-set branches whose effect is covered by a
// commuting sibling explored earlier. The search is exact up to its caps: if
// it finishes without truncation, every reachable canonical state of the
// configuration was explored.
package check

import (
	"errors"
	"fmt"

	"rme/internal/engine"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/telemetry"
)

// Config parameterizes a check run.
type Config struct {
	// Session is the algorithm/machine configuration (Passes defaults to 1).
	Session mutex.Config
	// MaxSchedules caps the number of complete schedules explored
	// (default 50000). The budget is split evenly over the root branch set,
	// so results are byte-identical at any Parallel value.
	MaxSchedules int
	// MaxDepth caps the schedule length (default 400).
	MaxDepth int
	// CrashesPerProc > 0 additionally branches on crash steps (recoverable
	// algorithms only), up to the given number of crashes per process.
	CrashesPerProc int
	// Parallel is the worker count for the exhaustive explorer's
	// root-branch fan-out (<= 0 means GOMAXPROCS). Results merge in
	// submission order, so output is identical at any value.
	Parallel int
	// Seed salts the explorer's state fingerprints; the explorer enumerates
	// the same schedule tree regardless.
	Seed int64

	// Memo enables visited-state memoization: canonical states are
	// fingerprinted and a state reached twice is explored once. Complete then
	// counts distinct terminal states rather than complete schedules.
	Memo bool
	// POR enables sleep-set partial-order reduction: a step branch is skipped
	// when a commuting sibling (disjoint cell footprints, or both reads of
	// one cell) was already explored and no process is in a multi-cell wait.
	// Crash branches are never reduced.
	POR bool
	// SnapshotInterval is the checkpoint spacing K of the incremental
	// explorer: restores replay at most ~K actions when a trailing checkpoint
	// is fresh, and full-prefix replays rebuild one checkpoint en route.
	// 0 means DefaultSnapshotInterval; negative disables checkpoints.
	SnapshotInterval int
	// MaxStates caps the visited-state set under Memo (default 4,000,000,
	// split over root branches like MaxSchedules). 0 means the default.
	MaxStates int

	// Symmetry enables process-symmetry reduction under Memo: state keys are
	// canonicalized over the algorithm's declared symmetry group
	// (mutex.SymmetricInstance), so states equal up to a declared renaming
	// are explored once. Algorithms with no declaration run exactly as with
	// the flag off. Verdicts are unchanged; only reachability is pruned.
	Symmetry bool
	// SharedVisited shares visited sets across root branches: branches run
	// in fixed waves of WaveSize, each wave reading the sets sealed by fully
	// explored branches of strictly earlier waves. Wave membership,
	// visibility, and seal contents are pure functions of the configuration,
	// so the Result stays byte-identical at any Parallel. Implies Memo.
	SharedVisited bool
	// WaveSize is the root-branch wave width for SharedVisited (default
	// DefaultWaveSize). It is a semantic knob: smaller waves seal earlier and
	// prune more. Results are byte-identical at any Parallel for a fixed
	// WaveSize, not across different WaveSize values.
	WaveSize int
	// MaxWaves > 0 stops the shared-set search after that many waves (the
	// Result is Truncated); with SpillDir the checkpoint then covers the
	// completed waves, so a later Resume run picks up where this one stopped.
	// Ignored without SharedVisited.
	MaxWaves int
	// MemBudget > 0 bounds the resident bytes of sealed shared sets: the
	// oldest waves past the budget are served from their spill files
	// (SpillDir, or a private temporary directory when unset). Pruning, and
	// therefore the Result, is unaffected.
	MemBudget int64
	// SpillDir, when set, persists every sealed wave and a manifest
	// checkpoint to this directory, enabling Resume and MemBudget eviction.
	SpillDir string
	// Resume continues a checkpointed shared-set run from SpillDir. The
	// configuration must match the checkpoint (a config digest is verified);
	// the final Result is byte-identical to an uninterrupted run.
	Resume bool

	// Telemetry, when non-nil, receives live search statistics (check_*
	// counters mirroring the Result fields, frontier-depth gauge, restore
	// replay-length histogram) and budget gauges. Strictly write-only: the
	// search never reads it back, so results are identical with it on or off.
	Telemetry *telemetry.Registry
}

// Default caps for the stateful explorer.
const (
	DefaultSnapshotInterval = 32
	DefaultMaxStates        = 4_000_000
	DefaultWaveSize         = 4
)

func (c Config) withDefaults() Config {
	if c.MaxSchedules == 0 {
		c.MaxSchedules = 50_000
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 400
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = DefaultSnapshotInterval
	}
	if c.MaxStates == 0 {
		c.MaxStates = DefaultMaxStates
	}
	if c.SharedVisited {
		c.Memo = true
		if c.WaveSize <= 0 {
			c.WaveSize = DefaultWaveSize
		}
	}
	if c.Session.Passes == 0 {
		c.Session.Passes = 1
	}
	return c
}

// Result reports a check run.
type Result struct {
	// Complete counts fully-explored terminal points: complete schedules
	// (all processes finished) without Memo, distinct all-done canonical
	// states with it.
	Complete int
	// Truncated reports whether a cap (MaxSchedules, MaxStates, or MaxDepth)
	// stopped the search before covering the whole schedule space.
	Truncated bool
	// DepthTruncated counts schedule prefixes cut at MaxDepth. The seed
	// explorer silently dropped these; any nonzero count voids exhaustive
	// claims, so it is reported separately and surfaced by cmd/rmecheck.
	DepthTruncated int
	// Violations lists safety failures with their schedules;
	// ViolationSchedules carries the same counterexamples structurally, so
	// they can be replayed without re-parsing the message text.
	Violations         []string
	ViolationSchedules []sim.Schedule
	// Deadlocks lists schedules that wedged the system, with
	// DeadlockSchedules the structural counterparts.
	Deadlocks         []string
	DeadlockSchedules []sim.Schedule

	// StatesVisited counts canonical states expanded by the explorer
	// (terminal states included) under Memo; 0 without Memo.
	StatesVisited int
	// StatesPruned counts search nodes skipped because their canonical state
	// was already explored.
	StatesPruned int
	// SharedPruned is the subset of StatesPruned whose hit came from the
	// shared visited set (a wave sealed earlier) rather than the branch's
	// private set; 0 unless SharedVisited.
	SharedPruned int
	// Waves counts the search waves the shared-set orchestrator completed,
	// waves restored by Resume included; 0 unless SharedVisited.
	Waves int
	// SleepPruned counts step branches skipped by the sleep-set reduction.
	SleepPruned int
	// MachineSteps counts every simulator action the search executed,
	// exploration and restoration alike — the cost measure the incremental
	// explorer is benchmarked on against the seed's stateless replay.
	MachineSteps int64
	// ReplaySteps is the subset of MachineSteps spent restoring states on
	// backtrack (checkpoint advance and prefix replay).
	ReplaySteps int64
}

// Ok reports whether no violation or deadlock was found.
func (r *Result) Ok() bool { return len(r.Violations) == 0 && len(r.Deadlocks) == 0 }

// Err summarizes failures as an error, or nil.
func (r *Result) Err() error {
	if r.Ok() {
		return nil
	}
	msg := ""
	if len(r.Violations) > 0 {
		msg = r.Violations[0]
	} else {
		msg = "deadlock: " + r.Deadlocks[0]
	}
	return fmt.Errorf("check: %d violations, %d deadlocks; first: %s",
		len(r.Violations), len(r.Deadlocks), msg)
}

// merge folds a root-branch sub-result into r in submission order.
func (r *Result) merge(b *Result) {
	r.Complete += b.Complete
	r.Truncated = r.Truncated || b.Truncated
	r.DepthTruncated += b.DepthTruncated
	r.Violations = append(r.Violations, b.Violations...)
	r.ViolationSchedules = append(r.ViolationSchedules, b.ViolationSchedules...)
	r.Deadlocks = append(r.Deadlocks, b.Deadlocks...)
	r.DeadlockSchedules = append(r.DeadlockSchedules, b.DeadlockSchedules...)
	r.StatesVisited += b.StatesVisited
	r.StatesPruned += b.StatesPruned
	r.SharedPruned += b.SharedPruned
	r.SleepPruned += b.SleepPruned
	r.MachineSteps += b.MachineSteps
	r.ReplaySteps += b.ReplaySteps
}

// Exhaustive runs the bounded-exhaustive search with the configured
// reductions. The root branch set is fanned out over engine workers
// (Config.Parallel) with per-branch budget slices and per-branch visited
// sets; sub-results merge in branch order, so the Result is byte-identical
// at any parallelism level. Branch enumeration order matches
// ExhaustiveReference exactly, so with Memo and POR off the two agree on
// every field.
func Exhaustive(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Session.Validate(); err != nil {
		return nil, err
	}
	if cfg.Resume {
		if !cfg.SharedVisited {
			return nil, errors.New("check: Resume requires SharedVisited")
		}
		if cfg.SpillDir == "" {
			return nil, errors.New("check: Resume requires SpillDir")
		}
	}

	// Examine the root state once: branch set, footprints, and the degenerate
	// verdicts (a machine that wedges or finishes before its first action).
	root, err := mutex.NewSession(cfg.Session)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	if v := root.Violations(); len(v) > 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%s [schedule ]", v[0]))
		res.ViolationSchedules = append(res.ViolationSchedules, sim.Schedule{})
		root.Close()
		return res, nil
	}
	if root.Machine().AllDone() {
		res.Complete = 1
		root.Close()
		return res, nil
	}
	branches := enumerateBranches(cfg, root)
	if len(branches) == 0 {
		res.Deadlocks = append(res.Deadlocks, sim.Schedule{}.String())
		res.DeadlockSchedules = append(res.DeadlockSchedules, sim.Schedule{})
		root.Close()
		return res, nil
	}
	sleeps := rootSleepMasks(cfg, root, branches)
	root.Close()

	if cfg.SharedVisited {
		return exhaustiveShared(cfg, branches, sleeps)
	}

	subs := make([]*Result, len(branches))
	scheduleSlice := ceilDiv(cfg.MaxSchedules, len(branches))
	stateSlice := ceilDiv(cfg.MaxStates, len(branches))
	schedBudget := make([]int, len(branches))
	stateBudget := make([]int, len(branches))
	for i := range branches {
		schedBudget[i] = scheduleSlice
		stateBudget[i] = stateSlice
	}

	// Budget gauges let a heartbeat render progress against the caps; the
	// branches_done counter tracks root-branch fan-out completion. All
	// nil-safe no-ops without a registry.
	cfg.Telemetry.Gauge("check_branches").Set(int64(len(branches)))
	cfg.Telemetry.Gauge("check_max_schedules").Set(int64(cfg.MaxSchedules))
	schedGauge := cfg.Telemetry.Gauge("check_branch_schedule_budget")
	stateGauge := cfg.Telemetry.Gauge("check_branch_state_budget")
	schedGauge.Set(int64(scheduleSlice))
	if cfg.Memo {
		cfg.Telemetry.Gauge("check_max_states").Set(int64(cfg.MaxStates))
		stateGauge.Set(int64(stateSlice))
	}
	branchesDone := cfg.Telemetry.Counter("check_branches_done")
	budgetRounds := cfg.Telemetry.Counter("check_budget_rounds")

	runBranches := func(idx []int, countDone bool) error {
		return engine.ForEach(len(idx), cfg.Parallel, func(k int) error {
			i := idx[k]
			e := newExplorer(cfg, schedBudget[i], stateBudget[i])
			defer e.close()
			sub, err := e.run(branches[i], sleeps[i])
			subs[i] = sub
			if countDone {
				branchesDone.Inc()
			}
			return err
		})
	}

	all := make([]int, len(branches))
	for i := range all {
		all[i] = i
	}
	if err := runBranches(all, true); err != nil {
		return nil, err
	}

	// Even slices starve hot branches on skewed trees: the branch holding
	// most of the schedule space truncates at its 1/len(branches) slice while
	// siblings leave the global budget largely unspent. Redistribute the
	// unspent budget to budget-capped branches in deterministic follow-up
	// rounds (the redo set and the grown budgets are pure functions of the
	// merged sub-results, so the final Result stays byte-identical at any
	// Parallel). Depth-truncated branches are excluded: MaxDepth cuts are not
	// a budget shortage and re-running them would change nothing.
	for round := 0; round < maxBudgetRounds; round++ {
		totalComplete, totalStates := 0, 0
		for _, sub := range subs {
			totalComplete += sub.Complete
			totalStates += sub.StatesVisited
		}
		var capped []int
		for i, sub := range subs {
			if !sub.Truncated {
				continue
			}
			if sub.Complete >= schedBudget[i] || (cfg.Memo && sub.StatesVisited >= stateBudget[i]) {
				capped = append(capped, i)
			}
		}
		if len(capped) == 0 {
			break
		}
		extraSched := (cfg.MaxSchedules - totalComplete) / len(capped)
		extraStates := 0
		if cfg.Memo {
			extraStates = (cfg.MaxStates - totalStates) / len(capped)
		}
		if extraSched < 0 {
			extraSched = 0
		}
		if extraStates < 0 {
			extraStates = 0
		}
		// Re-run only branches whose binding cap actually grows.
		var redo []int
		for _, i := range capped {
			grows := subs[i].Complete >= schedBudget[i] && extraSched > 0
			if cfg.Memo && subs[i].StatesVisited >= stateBudget[i] && extraStates > 0 {
				grows = true
			}
			if grows {
				redo = append(redo, i)
			}
		}
		if len(redo) == 0 {
			break
		}
		for _, i := range redo {
			schedBudget[i] += extraSched
			stateBudget[i] += extraStates
		}
		budgetRounds.Inc()
		schedGauge.Set(int64(schedBudget[redo[0]]))
		if cfg.Memo {
			stateGauge.Set(int64(stateBudget[redo[0]]))
		}
		if err := runBranches(redo, false); err != nil {
			return nil, err
		}
	}

	for _, sub := range subs {
		res.merge(sub)
	}
	return res, nil
}

// maxBudgetRounds bounds the redistribution loop. Unspent budget shrinks
// every round (a still-capped branch consumes exactly what it is given), so
// the loop converges in two or three rounds in practice; the bound is a
// backstop, not a tuning knob.
const maxBudgetRounds = 8

func ceilDiv(a, b int) int { return (a + b - 1) / b }
