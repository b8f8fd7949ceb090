package watree_test

import (
	"fmt"
	"testing"

	"rme/internal/algorithms/watree"
	"rme/internal/algtest"
	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/sim"
	"rme/internal/word"
)

func TestConformanceDefaultFanout(t *testing.T) {
	algtest.Run(t, watree.New(), algtest.Options{})
}

func TestConformanceBinaryFanout(t *testing.T) {
	// Fan-out 2 is the recoverable binary tournament — the deepest tree and
	// the most handoff interleavings per passage.
	algtest.Run(t, watree.New(watree.WithFanout(2)), algtest.Options{})
}

func TestConformanceNarrowWord(t *testing.T) {
	// 4-bit words: the regime the paper's lower bound is about. Fan-out is
	// capped at w = 4.
	algtest.Run(t, watree.New(), algtest.Options{Width: 4, MaxProcs: 8, Seeds: 15})
}

func TestMakeValidation(t *testing.T) {
	mem1, err := memory.NewNativeMem(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := watree.New().Make(mem1, 4); err == nil {
		t.Error("width 1 must be rejected")
	}
	mem8, err := memory.NewNativeMem(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := watree.New(watree.WithFanout(9)).Make(mem8, 4); err == nil {
		t.Error("fan-out exceeding word width must be rejected")
	}
	if _, err := watree.New().Make(mem8, 0); err == nil {
		t.Error("0 processes must be rejected")
	}
}

func TestFanoutPolicy(t *testing.T) {
	tests := []struct {
		w    word.Width
		n    int
		want int
	}{
		{64, 1000, 64},
		{8, 1000, 8},
		{64, 4, 4}, // fan-out never exceeds n
		{4, 100, 4},
	}
	for _, tt := range tests {
		if got := watree.New().Fanout(tt.w, tt.n); got != tt.want {
			t.Errorf("Fanout(w=%d, n=%d) = %d, want %d", tt.w, tt.n, got, tt.want)
		}
	}
	if got := watree.New(watree.WithFanout(2)).Fanout(64, 1000); got != 2 {
		t.Errorf("explicit fan-out ignored: %d", got)
	}
}

func TestSingleNodeWhenWordCoversAllProcs(t *testing.T) {
	// With w >= n the tree is one node and a contended passage costs O(1)
	// RMRs — the Katzan–Morrison headline (paper §1). The constant covers
	// registration, the targeted doorbell handshake, release, and the
	// driver's phase bookkeeping; the essential property is that it does
	// not grow with the number of contenders.
	measure := func(n int) int {
		s, err := mutex.NewSession(mutex.Config{
			Procs: n, Width: 32, Model: sim.CC, Algorithm: watree.New(), Passes: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.RunRoundRobin(); err != nil {
			t.Fatal(err)
		}
		return s.MaxPassageRMRs(sim.CC)
	}
	r4, r8, r24 := measure(4), measure(8), measure(24)
	if r24 > r4+2 || r24 > r8+2 {
		t.Errorf("single-node passage RMRs grew with contention: n=4:%d n=8:%d n=24:%d", r4, r8, r24)
	}
	if r24 > 20 {
		t.Errorf("single-node passage cost %d CC RMRs, want a small constant (<= 20)", r24)
	}
}

func TestDepthDropsWithWiderWords(t *testing.T) {
	// The word-size tradeoff in miniature: same n, growing w, shrinking
	// worst-case passage cost. This is experiment E2's core assertion.
	const n = 64
	measure := func(w word.Width) int {
		s, err := mutex.NewSession(mutex.Config{
			Procs: n, Width: w, Model: sim.CC, Algorithm: watree.New(), Passes: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.RunRoundRobin(); err != nil {
			t.Fatal(err)
		}
		return s.MaxPassageRMRs(sim.CC)
	}
	narrow := measure(2) // depth ceil(log2 64) = 6
	mid := measure(8)    // depth ceil(log8 64) = 2
	wide := measure(64)  // depth 1
	if !(narrow > mid && mid > wide) {
		t.Errorf("passage RMRs not decreasing in w: w=2:%d w=8:%d w=64:%d", narrow, mid, wide)
	}
}

func TestCrashAtEveryTreeLevel(t *testing.T) {
	// Drive p0 to each possible level of a deep tree and crash it there;
	// recovery must resume the climb exactly once per level.
	const n = 8
	alg := watree.New(watree.WithFanout(2)) // depth 3
	for crashAfter := 0; crashAfter < 20; crashAfter++ {
		s, err := mutex.NewSession(mutex.Config{
			Procs: n, Width: 8, Model: sim.CC, Algorithm: alg,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := s.Machine()
		// p0 takes crashAfter steps (or as many as it has), then crashes.
		taken := 0
		for taken < crashAfter && !m.ProcDone(0) && m.Poised(0) {
			if _, err := s.StepProc(0); err != nil {
				t.Fatal(err)
			}
			taken++
		}
		if !m.ProcDone(0) {
			if _, err := s.CrashProc(0); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.RunRoundRobin(); err != nil {
			t.Fatalf("crashAfter=%d: %v", crashAfter, err)
		}
		if v := s.Violations(); len(v) > 0 {
			t.Fatalf("crashAfter=%d: violations: %v", crashAfter, v)
		}
		s.Close()
	}
}

func TestNames(t *testing.T) {
	if got := watree.New().Name(); got != "watree" {
		t.Errorf("Name() = %q", got)
	}
	if got := watree.New(watree.WithFanout(2)).Name(); got != "watree(f=2)" {
		t.Errorf("Name() = %q", got)
	}
	if !watree.New().Recoverable() {
		t.Error("watree must be recoverable")
	}
}

func TestManyPassesManyWidths(t *testing.T) {
	for _, w := range []word.Width{2, 3, 4, 6, 8, 16, 32, 64} {
		w := w
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			s, err := mutex.NewSession(mutex.Config{
				Procs: 6, Width: w, Model: sim.CC, Algorithm: watree.New(), Passes: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.RunRoundRobin(); err != nil {
				t.Fatal(err)
			}
			if v := s.Violations(); len(v) > 0 {
				t.Fatalf("violations: %v", v)
			}
		})
	}
}

func TestConformanceFastPath(t *testing.T) {
	algtest.Run(t, watree.New(watree.WithFastPath()), algtest.Options{})
}

func TestConformanceFastPathNarrow(t *testing.T) {
	// 4-bit words with the fast slot: fan-out capped at 3.
	algtest.Run(t, watree.New(watree.WithFastPath()), algtest.Options{Width: 4, MaxProcs: 8, Seeds: 15})
}

func TestFastPathSoloCost(t *testing.T) {
	// The adaptivity claim (Katzan–Morrison O(min(k, log_w n))): a solo
	// acquisition through the fast path costs O(1) RMRs regardless of the
	// tree depth, while the plain tree pays the full climb.
	solo := func(alg mutex.Algorithm) int {
		s, err := mutex.NewSession(mutex.Config{
			Procs: 64, Width: 8, Model: sim.CC, Algorithm: alg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Drive only p0 to completion: a contention-free super-passage.
		m := s.Machine()
		for !m.ProcDone(0) {
			if !m.Poised(0) {
				t.Fatal("solo process blocked")
			}
			if _, err := s.StepProc(0); err != nil {
				t.Fatal(err)
			}
		}
		for _, st := range s.Stats() {
			if st.Proc == 0 {
				return st.RMRsCC
			}
		}
		t.Fatal("no passage stats for p0")
		return 0
	}
	plain := solo(watree.New())                     // depth ceil(log8 64) = 2
	fast := solo(watree.New(watree.WithFastPath())) // O(1) via the fast slot
	if fast >= plain {
		t.Errorf("fast path solo cost %d >= plain %d", fast, plain)
	}
	// The decisive property: the fast-path cost is independent of tree
	// depth, while the plain climb scales with it.
	deepPlain := solo(watree.New(watree.WithFanout(2)))                       // depth 6
	deepFast := solo(watree.New(watree.WithFanout(2), watree.WithFastPath())) // still O(1)
	if deepFast > fast+2 {
		t.Errorf("fast path cost grew with depth: %d vs %d", deepFast, fast)
	}
	if deepPlain < 2*deepFast {
		t.Errorf("deep plain climb (%d) should dwarf the fast path (%d)", deepPlain, deepFast)
	}
}

func TestFastPathNames(t *testing.T) {
	if got := watree.New(watree.WithFastPath()).Name(); got != "watree+fast" {
		t.Errorf("Name() = %q", got)
	}
	if got := watree.New(watree.WithFanout(2), watree.WithFastPath()).Name(); got != "watree(f=2)+fast" {
		t.Errorf("Name() = %q", got)
	}
}

func TestFastPathContendedStillTree(t *testing.T) {
	// Under full contention the fast path falls back to the climb; the
	// worst passage stays Θ(depth), and correctness holds.
	s, err := mutex.NewSession(mutex.Config{
		Procs: 16, Width: 4, Model: sim.CC, Algorithm: watree.New(watree.WithFastPath()), Passes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RunRoundRobin(); err != nil {
		t.Fatal(err)
	}
	if v := s.Violations(); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
}

// TestFaultCampaign runs the default fault-injection campaign — systematic
// and seeded-random crash placement judged by the invariant oracles,
// including the Θ(log_f n) RMR budget ceiling — for the word-fanout tree
// under CC and the binary-fanout variant under DSM.
func TestFaultCampaign(t *testing.T) {
	algtest.Campaign(t, watree.New(), 3, 8, sim.CC)
	algtest.Campaign(t, watree.New(watree.WithFanout(2)), 3, 8, sim.DSM)
}

func TestNativeConformance(t *testing.T) {
	algtest.RunNative(t, watree.New(), algtest.NativeOptions{})
}

func TestNativeConformanceBinaryFanout(t *testing.T) {
	// The deepest tree: most levels of handoff state to recover through.
	algtest.RunNative(t, watree.New(watree.WithFanout(2)), algtest.NativeOptions{Procs: []int{2, 4}})
}

func TestNativeConformanceFastPath(t *testing.T) {
	algtest.RunNative(t, watree.New(watree.WithFastPath()), algtest.NativeOptions{Procs: []int{2, 4}})
}

func TestNativeConformanceNarrowWord(t *testing.T) {
	// Narrow words force the native CAS-loop arithmetic paths end to end.
	algtest.RunNative(t, watree.New(), algtest.NativeOptions{Width: 8, Procs: []int{2, 4}})
}
