// Benchmarks: one per experiment table (E1–E8; see DESIGN.md's experiment
// index and EXPERIMENTS.md for recorded results), plus native sync/atomic
// throughput benchmarks of the same algorithm sources.
//
// The E-benchmarks measure the cost of regenerating one representative cell
// of each experiment's table; run `go run ./cmd/rmrbench` for the full
// tables themselves.
package rme_test

import (
	"fmt"
	"sync"
	"testing"

	"rme"
	"rme/internal/harness"
	"rme/internal/hiding"
	"rme/internal/hypergraph"
	"rme/internal/memory"
	"rme/internal/mutex"
)

// BenchmarkE1AdversaryRounds regenerates one (n, w) cell of the Theorem 1
// lower-bound table: the adversary forcing RMRs on the w-ary tree.
func BenchmarkE1AdversaryRounds(b *testing.B) {
	for _, tc := range []struct {
		n int
		w rme.Width
	}{
		{64, 4}, {64, 16}, {256, 8},
	} {
		b.Run(fmt.Sprintf("n=%d/w=%d", tc.n, tc.w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				adv, err := rme.NewAdversary(rme.AdversaryConfig{
					Session: rme.Config{
						Procs: tc.n, Width: tc.w, Model: rme.CC,
						Algorithm: rme.MustAlgorithm("watree"),
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := adv.Run()
				adv.Close()
				if err != nil {
					b.Fatal(err)
				}
				if rep.ForcedRMRs() == 0 {
					b.Fatal("no RMRs forced")
				}
			}
		})
	}
}

// BenchmarkE2WordSizeTradeoff regenerates one (n, w) cell of the upper-bound
// table: a fully contended simulated run of the w-ary tree.
func BenchmarkE2WordSizeTradeoff(b *testing.B) {
	for _, tc := range []struct {
		n int
		w rme.Width
	}{
		{64, 4}, {64, 64}, {256, 16},
	} {
		b.Run(fmt.Sprintf("n=%d/w=%d", tc.n, tc.w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := rme.NewSession(rme.Config{
					Procs: tc.n, Width: tc.w, Model: rme.CC,
					Algorithm: rme.MustAlgorithm("watree"), Passes: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.RunRoundRobin(); err != nil {
					b.Fatal(err)
				}
				if s.MaxPassageRMRs(rme.CC) == 0 {
					b.Fatal("no RMRs")
				}
				s.Close()
			}
		})
	}
}

// BenchmarkE3Lemma4 regenerates one Lemma 4 certificate on a dense random
// 3-partite hypergraph.
func BenchmarkE3Lemma4(b *testing.B) {
	parts := benchParts(3, 10)
	h, err := hypergraph.Complete(parts, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	s := 10.0 / 1.2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hypergraph.Lemma4(h.Edges, 0, parts[0], s, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Z) == 0 {
			b.Fatal("empty certificate")
		}
	}
}

// BenchmarkE4Lemma5 regenerates one Lemma 5 certificate on a complete
// 4-partite hypergraph.
func BenchmarkE4Lemma5(b *testing.B) {
	parts := benchParts(4, 6)
	h, err := hypergraph.Complete(parts, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	s := 6.0 / 1.2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hypergraph.Lemma5(h, s, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.F) == 0 {
			b.Fatal("empty certificate")
		}
	}
}

// BenchmarkE5ProcessHiding regenerates a Process-Hiding Lemma certificate at
// the paper's constants (ℓ=1, δ=1: one group of 108 processes, 27^4
// hyperedges) including full verification.
func BenchmarkE5ProcessHiding(b *testing.B) {
	k, partSize, groupSize := hiding.PaperConfig(1, 1)
	groups := [][]hiding.Proc{make([]hiding.Proc, groupSize)}
	for j := range groups[0] {
		groups[0][j] = hiding.Proc(j)
	}
	apply, err := hiding.RegisterApply(1, hiding.UniformOp(groups, memory.Add(1)))
	if err != nil {
		b.Fatal(err)
	}
	cfg := hiding.Config{
		Groups: groups, Y0: 0, ValueBits: 1, Delta: 1, K: k, PartSize: partSize, Apply: apply,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cert, err := hiding.Construct(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := cert.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Landscape regenerates one landscape row: a contended run of
// each algorithm family at n=16.
func BenchmarkE6Landscape(b *testing.B) {
	for _, name := range []string{"mcs", "grlock", "tournament", "watree"} {
		alg := rme.MustAlgorithm(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := rme.NewSession(rme.Config{
					Procs: 16, Width: 16, Model: rme.CC, Algorithm: alg, Passes: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.RunRoundRobin(); err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}

// BenchmarkE7CrashHiding regenerates the §1.1 comparison: the adversary's
// hiding manoeuvre with crashes (rspin) vs without (mcs).
func BenchmarkE7CrashHiding(b *testing.B) {
	for _, name := range []string{"rspin", "mcs"} {
		alg := rme.MustAlgorithm(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				adv, err := rme.NewAdversary(rme.AdversaryConfig{
					Session: rme.Config{Procs: 12, Width: 16, Model: rme.CC, Algorithm: alg},
					K:       4,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := adv.Run(); err != nil {
					b.Fatal(err)
				}
				adv.Close()
			}
		})
	}
}

// BenchmarkE8InvariantAudit measures the verified-replay machinery (the
// proof's table columns): one adversary construction dominated by
// erasability audits.
func BenchmarkE8InvariantAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		adv, err := rme.NewAdversary(rme.AdversaryConfig{
			Session: rme.Config{
				Procs: 64, Width: 8, Model: rme.DSM, Algorithm: rme.MustAlgorithm("grlock"),
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := adv.Run()
		adv.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.InvariantViolations) > 0 {
			b.Fatalf("violations: %v", rep.InvariantViolations)
		}
	}
}

// BenchmarkSimStep measures the raw step-gate cost (one scheduled atomic
// operation round-trip through the simulator).
func BenchmarkSimStep(b *testing.B) {
	s, err := rme.NewSession(rme.Config{
		Procs: 1, Width: 64, Model: rme.CC, Algorithm: rme.MustAlgorithm("tas"),
		Passes: 1 << 30, MaxSteps: 1 << 62,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.StepProc(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeLockThroughput runs the same algorithm sources on real
// sync/atomic memory with contending goroutines — the hardware side of the
// one-source-two-runtimes design.
func BenchmarkNativeLockThroughput(b *testing.B) {
	for _, name := range []string{"tas", "ticket", "mcs", "tournament", "rspin", "grlock", "watree"} {
		alg := rme.MustAlgorithm(name)
		for _, procs := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(b *testing.B) {
				benchNative(b, alg, procs)
			})
		}
	}
}

func benchNative(b *testing.B, alg rme.Algorithm, procs int) {
	lock, err := rme.NewNativeLock(alg, procs, 64)
	if err != nil {
		b.Fatal(err)
	}
	counter := 0 // CS-guarded; the race detector doubles as the witness

	var wg sync.WaitGroup
	per := b.N / procs
	b.ResetTimer()
	for id := 0; id < procs; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := lock.Bind(id)
			for i := 0; i < per; i++ {
				h.Lock()
				counter++
				h.Unlock()
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if counter != per*procs {
		b.Fatalf("counter = %d, want %d (mutual exclusion broken natively?)", counter, per*procs)
	}
}

// BenchmarkMutexSessionSetup measures machine + algorithm instantiation.
func BenchmarkMutexSessionSetup(b *testing.B) {
	alg := rme.MustAlgorithm("watree")
	for i := 0; i < b.N; i++ {
		s, err := mutex.NewSession(mutex.Config{
			Procs: 64, Width: 16, Model: rme.CC, Algorithm: alg,
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkSessionReuse contrasts fresh construction per run against the
// engine worker's reset-reuse path on the same contended workload — the
// tentpole optimisation for replay-heavy callers (checker, adversary).
func BenchmarkSessionReuse(b *testing.B) {
	cfg := mutex.Config{
		Procs: 64, Width: 16, Model: rme.CC,
		Algorithm: rme.MustAlgorithm("watree"), Passes: 1,
	}
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := mutex.NewSession(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.RunRoundRobin(); err != nil {
				b.Fatal(err)
			}
			s.Close()
		}
	})
	b.Run("reset", func(b *testing.B) {
		w := rme.NewWorker()
		defer w.Close()
		for i := 0; i < b.N; i++ {
			s, err := w.Session(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.RunRoundRobin(); err != nil {
				b.Fatal(err)
			}
			w.Release(s)
		}
	})
}

// BenchmarkEngineGrid measures a whole experiment-grid batch through the
// engine (the E2 shape) at parallelism 1; run with different GOMAXPROCS to
// see the pool scale while output stays identical.
func BenchmarkEngineGrid(b *testing.B) {
	alg := rme.MustAlgorithm("watree")
	var specs []rme.RunSpec
	for _, n := range []int{16, 64} {
		for _, w := range []rme.Width{4, 16, 64} {
			specs = append(specs, rme.RunSpec{Session: rme.Config{
				Procs: n, Width: w, Model: rme.CC, Algorithm: alg, Passes: 2,
			}})
		}
	}
	for i := 0; i < b.N; i++ {
		for _, r := range rme.Run(specs, rme.RunOptions{Parallel: 1}) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkExperimentTables measures the cheap experiment generators end to
// end (the expensive ones are covered by their own benchmarks above).
func BenchmarkExperimentTables(b *testing.B) {
	for _, id := range []string{"E3", "E4"} {
		exp, ok := harness.Find(id)
		if !ok {
			b.Fatalf("%s not found", id)
		}
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.Run(harness.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchParts(k, size int) [][]hypergraph.Vertex {
	parts := make([][]hypergraph.Vertex, k)
	id := 0
	for i := range parts {
		parts[i] = make([]hypergraph.Vertex, size)
		for j := range parts[i] {
			parts[i][j] = hypergraph.Vertex(id)
			id++
		}
	}
	return parts
}
