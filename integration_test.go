package rme_test

import (
	"testing"

	"rme"
)

// TestTradeoffEndToEnd is the repository's headline assertion as one test:
// for fixed n, across word widths, the measured upper bound (watree passage
// cost) and the adversary-forced lower bound must both decrease with w and
// bracket the theory curve's shape — Theorem 1 and its matching upper bound
// [19] observed on the same machine model.
func TestTradeoffEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several adversary constructions")
	}
	const n = 64
	type point struct {
		w      rme.Width
		forced int // lower bound side (adversary)
		spent  int // upper bound side (algorithm)
	}
	var curve []point
	for _, w := range []rme.Width{4, 8, 64} {
		adv, err := rme.NewAdversary(rme.AdversaryConfig{
			Session: rme.Config{
				Procs: n, Width: w, Model: rme.CC, Algorithm: rme.MustAlgorithm("watree"),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := adv.Run()
		adv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.InvariantViolations) > 0 {
			t.Fatalf("w=%d: %v", w, rep.InvariantViolations)
		}

		s, err := rme.NewSession(rme.Config{
			Procs: n, Width: w, Model: rme.CC,
			Algorithm: rme.MustAlgorithm("watree"), Passes: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunRoundRobin(); err != nil {
			t.Fatal(err)
		}
		spent := s.MaxPassageRMRs(rme.CC)
		s.Close()

		curve = append(curve, point{w: w, forced: rep.ForcedRMRs(), spent: spent})
	}

	for i := 1; i < len(curve); i++ {
		if curve[i].forced > curve[i-1].forced {
			t.Errorf("lower bound grew with width: %+v -> %+v", curve[i-1], curve[i])
		}
		if curve[i].spent > curve[i-1].spent {
			t.Errorf("upper bound grew with width: %+v -> %+v", curve[i-1], curve[i])
		}
	}
	for _, p := range curve {
		if p.forced > p.spent {
			t.Errorf("w=%d: adversary forced %d RMRs but the algorithm's worst passage is %d — impossible",
				p.w, p.forced, p.spent)
		}
		if p.forced < 2 {
			t.Errorf("w=%d: forced only %d RMRs", p.w, p.forced)
		}
	}
	// The tradeoff must be strict between the extremes.
	if curve[0].forced <= curve[len(curve)-1].forced {
		t.Errorf("no word-size tradeoff visible in the lower bound: %+v", curve)
	}
	if curve[0].spent <= curve[len(curve)-1].spent {
		t.Errorf("no word-size tradeoff visible in the upper bound: %+v", curve)
	}
}

// TestAllRecoverableAlgorithmsSurviveCrashStorm drives every recoverable
// registry algorithm through a randomized crash storm via the public API.
func TestAllRecoverableAlgorithmsSurviveCrashStorm(t *testing.T) {
	for _, alg := range rme.Algorithms() {
		if !alg.Recoverable() {
			continue
		}
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			n := 6
			w := rme.Width(16)
			if alg.Name() == "qword" {
				w = 64
			}
			for seed := int64(0); seed < 10; seed++ {
				s, err := rme.NewSession(rme.Config{
					Procs: n, Width: w, Model: rme.CC, Algorithm: alg, Passes: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				err = s.RunRandom(seed, rme.RandomRunOptions{CrashProb: 0.05, MaxCrashesPerProc: 2})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				s.Close()
			}
		})
	}
}
