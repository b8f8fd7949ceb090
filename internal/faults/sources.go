package faults

import (
	"fmt"
	"math/rand"

	"rme/internal/sim"
)

// Probe describes the crash-free base execution a campaign measured before
// generating plans: exhaustive placement enumerates its decision indices,
// and the RMR-targeted source crashes exactly where it paid.
type Probe struct {
	// Steps is the number of scheduler decisions of the crash-free
	// round-robin run.
	Steps int
	// RMRAt lists the decision indices whose step incurred an RMR under the
	// campaign's configured model, ascending.
	RMRAt []int
	// Schedule is the probe run's executed action sequence. Campaigns run
	// untraced, so a caller that wants the step-level story (rmefault -trace)
	// replays this schedule — or a failure's shrunken reproducer — with
	// ReplayTraced.
	Schedule sim.Schedule
}

// Source generates the run plans of one campaign axis.
type Source interface {
	Name() string
	// Plans derives the runs from the probe of the base execution. Crash
	// lists must be ascending by decision index.
	Plans(pr Probe) []Plan
}

// ExhaustiveCrashes places Crashes crash steps at every (strided)
// combination of decision indices of the base execution: the systematic
// version of the paper's adversarially-chosen individual crash placement.
// With Crashes=1 and Stride=1 it covers every crash window of the base run;
// Crashes=2 additionally covers crashes that hit an earlier crash's
// recovery.
type ExhaustiveCrashes struct {
	// Crashes is the number of crashes per run (1 or 2; default 1).
	Crashes int
	// Stride samples every Stride-th index (default 1 for single crashes,
	// steps/6+1 for double — the density the conformance suite always used).
	Stride int
	// Slack extends placement past the base execution length, covering
	// windows that only exist because the earlier crash lengthened the run
	// (default 0 for single, 4 for double).
	Slack int
}

// Name identifies the source.
func (e ExhaustiveCrashes) Name() string {
	if e.Crashes >= 2 {
		return "exhaustive-double"
	}
	return "exhaustive-single"
}

// Plans enumerates the placements.
func (e ExhaustiveCrashes) Plans(pr Probe) []Plan {
	var plans []Plan
	switch {
	case e.Crashes >= 2:
		stride := e.Stride
		if stride <= 0 {
			stride = pr.Steps/6 + 1
		}
		slack := e.Slack
		if slack == 0 {
			slack = 4
		}
		for i := 0; i < pr.Steps; i += stride {
			for j := i + 1; j < pr.Steps+slack; j += stride {
				plans = append(plans, Plan{Seed: -1, Crashes: []Crash{
					{At: i, Victim: VictimScheduled},
					{At: j, Victim: VictimScheduled},
				}})
			}
		}
	default:
		stride := e.Stride
		if stride <= 0 {
			stride = 1
		}
		for at := 0; at < pr.Steps+e.Slack; at += stride {
			plans = append(plans, Plan{Seed: -1, Crashes: []Crash{{At: at, Victim: VictimScheduled}}})
		}
	}
	return plans
}

// RMRTargeted crashes at every RMR-incurring decision of the base execution
// — the steps the paper's lower bound argues about. It is the cheap
// high-yield subset of exhaustive placement: crash windows that sit on
// cache-miss/remote transitions are where recovery protocols lose state.
type RMRTargeted struct{}

// Name identifies the source.
func (RMRTargeted) Name() string { return "rmr-targeted" }

// Plans crashes the scheduled process at each RMR-incurring decision.
func (RMRTargeted) Plans(pr Probe) []Plan {
	plans := make([]Plan, 0, len(pr.RMRAt))
	for _, at := range pr.RMRAt {
		plans = append(plans, Plan{Seed: -1, Crashes: []Crash{{At: at, Victim: VictimScheduled}}})
	}
	return plans
}

// ParkedCrashes crashes the lowest-id parked process at every (strided)
// decision of the base execution — the recovery window that scheduled-step
// placement cannot reach, because parked processes take no steps.
type ParkedCrashes struct {
	// Stride samples every Stride-th decision (default 1).
	Stride int
}

// Name identifies the source.
func (ParkedCrashes) Name() string { return "crash-parked" }

// Plans enumerates the parked-crash placements.
func (p ParkedCrashes) Plans(pr Probe) []Plan {
	stride := p.Stride
	if stride <= 0 {
		stride = 1
	}
	var plans []Plan
	for at := 0; at < pr.Steps; at += stride {
		plans = append(plans, Plan{Seed: -1, Crashes: []Crash{{At: at, Victim: VictimParked}}})
	}
	return plans
}

// SystemWideCrashes crashes every live process simultaneously at sampled
// decisions — the system-wide failure model of Golab–Hendler and
// Jayanti–Jayanti–Joshi the paper contrasts with its individual-crash model
// (§4). Individual-crash recoverability implies system-wide recoverability,
// so every recoverable algorithm must survive it.
type SystemWideCrashes struct {
	// Stride samples every Stride-th decision (default steps/8+1).
	Stride int
}

// Name identifies the source.
func (SystemWideCrashes) Name() string { return "system-wide" }

// Plans enumerates the crash-wave placements.
func (s SystemWideCrashes) Plans(pr Probe) []Plan {
	stride := s.Stride
	if stride <= 0 {
		stride = pr.Steps/8 + 1
	}
	var plans []Plan
	for at := 0; at < pr.Steps; at += stride {
		plans = append(plans, Plan{Seed: -1, Crashes: []Crash{{At: at, Victim: VictimAll}}})
	}
	return plans
}

// RandomCrashes is the seeded-random campaign axis for configurations too
// large to enumerate: each run drives a seeded-random schedule and injects
// up to MaxCrashes crashes on random live victims at random decisions. Every
// run is a pure function of its derived seed, so campaign results are
// parallelism-independent and any failure replays from the printed plan.
type RandomCrashes struct {
	// Runs is the number of random runs (default 32).
	Runs int
	// MaxCrashes caps crashes per run (default 3; 0 keeps schedules random
	// but crash-free, the right setting for non-recoverable algorithms).
	MaxCrashes int
	// Seed is the campaign base seed; run i derives its plan from Seed and i.
	Seed int64
	// Horizon bounds crash decision indices (default 4x the base execution).
	Horizon int
}

// Name identifies the source.
func (RandomCrashes) Name() string { return "random" }

// Plans derives the seeded runs.
func (r RandomCrashes) Plans(pr Probe) []Plan {
	runs := r.Runs
	if runs <= 0 {
		runs = 32
	}
	maxCrashes := r.MaxCrashes
	horizon := r.Horizon
	if horizon <= 0 {
		horizon = 4*pr.Steps + 64
	}
	plans := make([]Plan, 0, runs)
	for i := 0; i < runs; i++ {
		seed := deriveSeed(r.Seed, i)
		rng := rand.New(rand.NewSource(seed))
		var crashes []Crash
		if maxCrashes > 0 {
			for k := rng.Intn(maxCrashes + 1); k > 0; k-- {
				crashes = append(crashes, Crash{At: rng.Intn(horizon), Victim: VictimRandom})
			}
			sortCrashes(crashes)
		}
		plans = append(plans, Plan{Seed: seed, Crashes: crashes})
	}
	return plans
}

// deriveSeed maps (base, index) to a run seed with a splitmix64 round, so
// campaign seeds that differ by 1 do not produce overlapping run streams.
func deriveSeed(base int64, i int) int64 {
	z := uint64(base)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	// Plans interpret negative seeds as round-robin; keep the derived seed
	// non-negative.
	return int64(z >> 1)
}

// validSources checks a source list against an algorithm's recoverability:
// crash-injecting sources are rejected for non-recoverable algorithms
// (drivers refuse to crash them, so the campaign would only report errors).
func validSources(recoverable bool, sources []Source) error {
	if recoverable {
		return nil
	}
	for _, src := range sources {
		switch s := src.(type) {
		case RandomCrashes:
			if s.MaxCrashes > 0 {
				return fmt.Errorf("faults: source %s injects crashes but the algorithm is not recoverable", src.Name())
			}
		default:
			return fmt.Errorf("faults: source %s injects crashes but the algorithm is not recoverable", src.Name())
		}
	}
	return nil
}
