package service

import (
	"testing"

	"rme"
	"rme/internal/sim"
)

// allocsPerRoundCeiling bounds the steady-state heap allocations of one
// full-service round (16 locks, 20k clients, zipf:1.1, watree w=8 CC,
// Parallel 1). Measured with go1.24 on linux/amd64: 2,770 per round
// (2,778 under -race); the ceiling leaves ~3% for toolchain drift. Rounds
// are not allocation-free: the ceiling keeps the figure from growing
// unnoticed until the round loop is made so.
const allocsPerRoundCeiling = 2850

// TestRoundAllocs counts the allocations of a short and a long run of the
// same configuration and divides their difference by the extra rounds, so
// the fixed setup cost (client records, shard machines, report) cancels.
func TestRoundAllocs(t *testing.T) {
	measure := func(passages int64) (allocs float64, rounds int64) {
		cfg := Config{
			Locks:     16,
			Clients:   20_000,
			Passages:  passages,
			Dist:      Dist{Kind: Zipf, Theta: 1.1},
			Seed:      1,
			Algorithm: rme.MustAlgorithm("watree"),
			Model:     sim.CC,
			Parallel:  1,
		}
		allocs = testing.AllocsPerRun(1, func() {
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rounds = rep.Rounds
		})
		return allocs, rounds
	}
	shortAllocs, shortRounds := measure(2_000)
	longAllocs, longRounds := measure(8_000)
	if longRounds <= shortRounds {
		t.Fatalf("long run has %d rounds, short run %d: nothing to difference", longRounds, shortRounds)
	}
	perRound := (longAllocs - shortAllocs) / float64(longRounds-shortRounds)
	t.Logf("%.0f allocations per round (%d→%d rounds, %.0f→%.0f allocations)",
		perRound, shortRounds, longRounds, shortAllocs, longAllocs)
	if perRound > allocsPerRoundCeiling {
		t.Fatalf("%.0f allocations per service round, ceiling %d", perRound, allocsPerRoundCeiling)
	}
}
