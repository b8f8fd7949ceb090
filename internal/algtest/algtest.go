// Package algtest is a reusable conformance suite for mutual exclusion
// algorithms: mutual exclusion, progress, and — for recoverable algorithms —
// systematic crash injection at every step of a base schedule, double
// crashes, and randomized crash storms. The random schedules and every crash
// pattern are fault-injection campaign presets over internal/faults, so every
// failure a conformance run reports comes with a delta-debugged minimal
// reproducer.
// The model checker in internal/check explores interleavings more
// aggressively on top.
package algtest

import (
	"fmt"
	"testing"

	"rme/internal/faults"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

// Options tunes the conformance run for an algorithm's constraints.
type Options struct {
	// Width is the word size used for most tests (default 16).
	Width word.Width
	// MaxProcs caps the process counts exercised (default 8).
	MaxProcs int
	// Seeds is the number of runs of each random campaign axis (default 30).
	Seeds int
	// SkipDSM skips DSM-model runs (for CC-only algorithms whose waiting is
	// not DSM-local; their correctness is model-independent, so this only
	// reduces redundancy, but it documents intent).
	SkipDSM bool
}

func (o Options) withDefaults() Options {
	if o.Width == 0 {
		o.Width = 16
	}
	if o.MaxProcs == 0 {
		o.MaxProcs = 8
	}
	if o.Seeds == 0 {
		o.Seeds = 30
	}
	return o
}

// Run executes the full conformance suite as subtests.
func Run(t *testing.T, alg mutex.Algorithm, opts Options) {
	t.Helper()
	opts = opts.withDefaults()

	models := []sim.Model{sim.CC}
	if !opts.SkipDSM {
		models = append(models, sim.DSM)
	}

	t.Run("Solo", func(t *testing.T) { testSolo(t, alg, opts) })
	for _, model := range models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Run("RoundRobin", func(t *testing.T) { testRoundRobin(t, alg, opts, model) })
			t.Run("RandomSchedules", func(t *testing.T) { runRandomAxis(t, alg, opts, model, 0) })
			if alg.Recoverable() {
				t.Run("CrashEverywhere", func(t *testing.T) {
					runCampaign(t, alg, opts, model, 3, 1, faults.ExhaustiveCrashes{Crashes: 1})
				})
				t.Run("CrashParked", func(t *testing.T) {
					runCampaign(t, alg, opts, model, 3, 1, faults.ParkedCrashes{})
				})
				t.Run("DoubleCrash", func(t *testing.T) {
					runCampaign(t, alg, opts, model, 2, 1, faults.ExhaustiveCrashes{Crashes: 2})
				})
				t.Run("CrashStorm", func(t *testing.T) { runRandomAxis(t, alg, opts, model, 3) })
				t.Run("SystemWideCrash", func(t *testing.T) {
					runCampaign(t, alg, opts, model, 3, 1, faults.SystemWideCrashes{})
				})
			}
		})
	}
}

// runCampaign executes one fault-injection campaign axis and reports every
// failure with its minimal reproducer. The invariant oracles mirror the
// suite's historical assertions: no safety violation (mutual exclusion), no
// stuck or unboundedly long execution (deadlock-freedom), and every process
// completing its super-passages (CS re-entry).
func runCampaign(t *testing.T, alg mutex.Algorithm, opts Options, model sim.Model, n, passes int, src faults.Source) {
	t.Helper()
	rep, err := faults.Campaign{
		Session: mutex.Config{
			Procs: n, Width: opts.Width, Model: model, Algorithm: alg, Passes: passes,
		},
		Sources: []faults.Source{src},
		Oracles: []faults.Oracle{faults.MutualExclusion{}, faults.DeadlockFree{}, faults.Reentry{}},
	}.Run()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	for _, f := range rep.Failures {
		t.Errorf("%s", f)
	}
}

func newSession(t *testing.T, alg mutex.Algorithm, opts Options, model sim.Model, procs, passes int) *mutex.Session {
	t.Helper()
	s, err := mutex.NewSession(mutex.Config{
		Procs:     procs,
		Width:     opts.Width,
		Model:     model,
		Algorithm: alg,
		Passes:    passes,
	})
	if err != nil {
		t.Fatalf("new session (n=%d): %v", procs, err)
	}
	t.Cleanup(s.Close)
	return s
}

func testSolo(t *testing.T, alg mutex.Algorithm, opts Options) {
	s := newSession(t, alg, opts, sim.CC, 1, 3)
	if err := s.RunRoundRobin(); err != nil {
		t.Fatalf("solo run: %v", err)
	}
	assertCompleted(t, s, 1, 3)
}

func procCounts(maxProcs int) []int {
	counts := []int{2, 3, 5, 8, 13}
	var out []int
	for _, c := range counts {
		if c <= maxProcs {
			out = append(out, c)
		}
	}
	return out
}

func testRoundRobin(t *testing.T, alg mutex.Algorithm, opts Options, model sim.Model) {
	for _, n := range procCounts(opts.MaxProcs) {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s := newSession(t, alg, opts, model, n, 2)
			if err := s.RunRoundRobin(); err != nil {
				t.Fatalf("round robin: %v", err)
			}
			assertCompleted(t, s, n, 2)
		})
	}
}

// runRandomAxis runs the seeded-random campaign axis at every process
// count: opts.Seeds random schedules of two super-passages each, with up to
// crashesPerProc×n crashes per run (0 keeps the schedules crash-free).
func runRandomAxis(t *testing.T, alg mutex.Algorithm, opts Options, model sim.Model, crashesPerProc int) {
	for _, n := range procCounts(opts.MaxProcs) {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runCampaign(t, alg, opts, model, n, 2,
				faults.RandomCrashes{Runs: opts.Seeds, MaxCrashes: crashesPerProc * n})
		})
	}
}

// Campaign runs the default fault-injection campaign for an algorithm at one
// configuration, sized down under -short, and reports failures with their
// minimal reproducers. Algorithm packages call this as their campaign
// conformance entry point; the default oracles include the per-algorithm RMR
// budget ceilings, so a passage whose cost regresses past its asymptotic
// class fails here.
func Campaign(t *testing.T, alg mutex.Algorithm, n int, w word.Width, model sim.Model) {
	t.Helper()
	seed := int64(1)
	rep, err := faults.Campaign{
		Session: mutex.Config{Procs: n, Width: w, Model: model, Algorithm: alg},
		Sources: faults.DefaultSources(alg.Recoverable(), seed, testing.Short()),
		Seed:    seed,
	}.Run()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	t.Logf("%s n=%d w=%d %s: %d runs across %d sources", alg.Name(), n, w, model, rep.Runs, len(rep.Sources))
	for _, f := range rep.Failures {
		t.Errorf("%s", f)
	}
}

// assertCompleted verifies that every process finished the expected number
// of super-passages and that no safety violation was recorded.
func assertCompleted(t *testing.T, s *mutex.Session, procs, passes int) {
	t.Helper()
	if v := s.Violations(); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	m := s.Machine()
	if !m.AllDone() {
		t.Fatal("not all processes finished")
	}
	completed := s.CompletedPasses()
	for p, c := range completed {
		if c < passes {
			t.Errorf("p%d completed %d super-passage-ending passages, want >= %d", p, c, passes)
		}
	}
}
