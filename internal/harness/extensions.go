package harness

import (
	"fmt"
	"math/rand"

	"rme/internal/algorithms/grlock"
	"rme/internal/algorithms/rspin"
	"rme/internal/algorithms/watree"
	"rme/internal/engine"
	"rme/internal/mutex"
	"rme/internal/sim"
)

// Extensions returns the experiments beyond the paper's direct claims:
// reproductions of the §4 discussion points (the system-wide failure model
// and the amortized-complexity escape hatch) and the checker-focused
// state-space census (E13).
func Extensions() []Experiment {
	return []Experiment{
		{
			ID:    "E9",
			Title: "System-wide crashes (paper §4 discussion)",
			Claim: "The lower bound inherently relies on individual process crashes; under the system-wide failure model [11, 14] the same algorithms recover from simultaneous crashes of all processes, and the per-crash-wave RMR overhead is bounded.",
			Run:   runE9,
		},
		{
			ID:    "E10",
			Title: "Worst-case vs amortized RMRs (paper §4 discussion)",
			Claim: "Theorem 1 bounds the maximum RMRs per passage; it most likely cannot extend to amortized complexity [4]. The table reports both statistics: the bound governs the max column, while averages sit well below it for the tree algorithms.",
			Run:   runE10,
		},
		fairnessExperiment(),
		adaptivityExperiment(),
		statespaceExperiment(),
	}
}

// runE9 injects waves of simultaneous crashes and measures the recovery
// overhead per wave.
func runE9(opts Options) ([]Table, error) {
	waves := []int{0, 1, 2, 4}
	n := 12
	if opts.Full {
		n = 32
	}
	t := Table{
		Title:  fmt.Sprintf("E9: system-wide crash waves (n=%d, w=16, CC, 2 passes)", n),
		Header: []string{"algorithm", "crash waves", "total RMRs", "RMR overhead/wave", "max RMR/passage", "violations"},
		Note: "Each wave crashes every live process at a random point; the run must " +
			"still complete every super-passage exactly once. Overhead/wave is the " +
			"added total RMR cost relative to the crash-free run, i.e. the price of a " +
			"full recovery storm.",
	}
	algs := []mutex.Algorithm{watree.New(), watree.New(watree.WithFanout(2)), grlock.New(), rspin.New()}
	var specs []engine.RunSpec
	for _, alg := range algs {
		for _, wv := range waves {
			specs = append(specs, engine.RunSpec{
				Session: mutex.Config{
					Procs: n, Width: 16, Model: sim.CC, Algorithm: alg, Passes: 2,
				},
				Drive: crashWaveDrive(n, wv, 99+opts.Seed),
			})
		}
	}
	results := engine.Run(specs, opts.engineOpts())
	idx := 0
	for _, alg := range algs {
		var base int
		for _, wv := range waves {
			r := results[idx]
			idx++
			if r.Err != nil {
				return nil, fmt.Errorf("E9 %s waves=%d: %w", alg.Name(), wv, r.Err)
			}
			total := r.TotalRMRCC
			if wv == 0 {
				base = total
			}
			overhead := "-"
			if wv > 0 {
				overhead = fmt.Sprintf("%.1f", float64(total-base)/float64(wv))
			}
			t.AddRow(alg.Name(), wv, total, overhead, r.MaxRMRCC, len(r.Violations))
		}
	}
	return []Table{t}, nil
}

// crashWaveDrive returns a deterministic drive that crashes every live
// process at `waves` seeded points of an otherwise random run.
func crashWaveDrive(n, waves int, seed int64) func(*mutex.Session) error {
	return func(s *mutex.Session) error {
		rng := rand.New(rand.NewSource(seed))
		m := s.Machine()
		// Pick wave trigger points over a rough horizon of the crash-free
		// length.
		trigger := make(map[int]bool, waves)
		for i := 0; i < waves; i++ {
			trigger[1+rng.Intn(40*n)] = true
		}
		decision := 0
		for !m.AllDone() {
			poised := m.PoisedProcs()
			if len(poised) == 0 {
				return mutex.ErrStuck
			}
			if trigger[decision] {
				if err := s.CrashAllProcs(); err != nil {
					return err
				}
				delete(trigger, decision)
			}
			if _, err := s.StepProc(poised[rng.Intn(len(poised))]); err != nil {
				return err
			}
			decision++
		}
		return nil
	}
}

// runE10 contrasts worst-case and average RMRs per passage.
func runE10(opts Options) ([]Table, error) {
	ns := []int{16, 64}
	if opts.Full {
		ns = append(ns, 256)
	}
	passes := 4
	t := Table{
		Title:  fmt.Sprintf("E10: worst-case vs amortized RMRs per passage (w=8, CC, %d passes)", passes),
		Header: []string{"algorithm", "n", "max RMR/passage", "avg RMR/passage", "max/avg"},
		Note: "Theorem 1 is a worst-case statement. The amortized column shows the " +
			"average over a contended run: the gap between the columns is the room " +
			"the paper's §4 identifies for constant-amortized RME [4].",
	}
	algs := []mutex.Algorithm{watree.New(), watree.New(watree.WithFanout(2)), grlock.New()}
	type amortized struct {
		maxP int
		avg  float64
	}
	var specs []engine.RunSpec
	for _, alg := range algs {
		for _, n := range ns {
			specs = append(specs, engine.RunSpec{
				Session: mutex.Config{
					Procs: n, Width: 8, Model: sim.CC, Algorithm: alg, Passes: passes,
				},
				Collect: func(s *mutex.Session) (interface{}, error) {
					stats := s.Stats()
					total, maxP := 0, 0
					for _, st := range stats {
						total += st.RMRsCC
						if st.RMRsCC > maxP {
							maxP = st.RMRsCC
						}
					}
					return amortized{maxP: maxP, avg: float64(total) / float64(len(stats))}, nil
				},
			})
		}
	}
	results := engine.Run(specs, opts.engineOpts())
	idx := 0
	for _, alg := range algs {
		for _, n := range ns {
			r := results[idx]
			idx++
			if r.Err != nil {
				return nil, fmt.Errorf("E10 %s n=%d: %w", alg.Name(), n, r.Err)
			}
			am := r.Payload.(amortized)
			t.AddRow(alg.Name(), n, am.maxP, am.avg, float64(am.maxP)/am.avg)
		}
	}
	return []Table{t}, nil
}
