package faults

import (
	"testing"

	"rme/internal/algorithms/rspin"
	"rme/internal/mutex"
	"rme/internal/sim"
)

// randomOracles is the invariant set the random axis is judged by wherever
// it stands alone (rmecheck -stress, the conformance storms).
var randomOracles = []Oracle{MutualExclusion{}, DeadlockFree{}, Reentry{}}

// runRandom runs a campaign whose only source is src.
func runRandom(t *testing.T, cfg mutex.Config, src RandomCrashes) *Report {
	t.Helper()
	rep, err := Campaign{Session: cfg, Sources: []Source{src}, Oracles: randomOracles}.Run()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	return rep
}

// TestRandomCrashesFire checks that the random axis's planned crashes land
// inside the runs they are planned for: a crash index past the end of the
// run never fires, and a random axis whose crashes do not fire cannot catch
// a crash-recovery bug.
func TestRandomCrashesFire(t *testing.T) {
	cfg := mutex.Config{Procs: 2, Width: 8, Model: sim.CC, Algorithm: NewBroken(), Passes: 1}
	src := RandomCrashes{Runs: 500, MaxCrashes: 2, Seed: 1}
	c := Campaign{Session: cfg}
	probe, _, err := c.probe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := mutex.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	planned, fired := 0, 0
	for _, pl := range src.Plans(probe) {
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		_ = pl.drive(s, 64*probe.Steps+4096, nil) // oracles are not the point here
		planned += len(pl.Crashes)
		for _, act := range s.Machine().Schedule() {
			if act.Crash {
				fired++
			}
		}
	}
	if planned == 0 || fired*5 < planned*4 {
		t.Errorf("%d of %d planned crashes fired, want at least 80%%", fired, planned)
	}

	rep := runRandom(t, cfg, src)
	t.Logf("%d/%d planned crashes fired; %d/%d runs flagged", fired, planned, rep.Sources[0].Failures, rep.Sources[0].Runs)
	if got := rep.Sources[0].Failures; got < 5 {
		t.Errorf("random axis flagged %d of %d runs on broken-tas n=2, want at least 5", got, rep.Sources[0].Runs)
	}
}

// TestRandomCrashesKillTable is the random axis's mutation test: every
// known-bad fixture must be flagged by a campaign whose only source is
// RandomCrashes, and the first failure's shrunk reproducer must replay the
// same oracle violation from its printed form.
func TestRandomCrashesKillTable(t *testing.T) {
	cases := []struct {
		name string
		alg  mutex.Algorithm
		n    int
		src  RandomCrashes
		// randomAxis demands the flag come from the random runs themselves,
		// not from the campaign's crash-free round-robin probe.
		randomAxis bool
	}{
		{name: "broken-ticket-n2", alg: NewBrokenTicket(), n: 2, src: RandomCrashes{Runs: 300}},
		{name: "broken-ticket-n3", alg: NewBrokenTicket(), n: 3, src: RandomCrashes{Runs: 20}},
		{name: "wedging-tas-n2", alg: NewWedgingTAS(), n: 2, src: RandomCrashes{Runs: 300}},
		{name: "broken-tas-n2", alg: NewBroken(), n: 2, src: RandomCrashes{Runs: 500, MaxCrashes: 2}, randomAxis: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := mutex.Config{Procs: tc.n, Width: 8, Model: sim.CC, Algorithm: tc.alg, Passes: 1}
			rep := runRandom(t, cfg, tc.src)
			if rep.Ok() {
				t.Fatalf("no failure in %d runs", rep.Runs)
			}
			if tc.randomAxis && (rep.Sources[0].Name != "random" || rep.Sources[0].Failures == 0) {
				t.Fatalf("the random axis flagged nothing: %+v", rep.Sources)
			}
			fail := rep.Failures[0]
			parsed, err := sim.ParseSchedule(fail.Shrunk.String())
			if err != nil {
				t.Fatalf("ParseSchedule(%q): %v", fail.Shrunk.String(), err)
			}
			out, err := Replay(cfg, parsed)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if got := out.Schedule.String(); got != fail.Shrunk.String() {
				t.Fatalf("replayed schedule %q != reproducer %q", got, fail.Shrunk.String())
			}
			for _, orc := range randomOracles {
				if orc.Name() == fail.Oracle {
					if orc.Check(out) == "" {
						t.Fatalf("%s does not fire on the replayed reproducer %q", fail.Oracle, fail.Shrunk.String())
					}
					return
				}
			}
			t.Fatalf("failure from unexpected oracle %q: %s", fail.Oracle, fail)
		})
	}
}

// TestRandomCrashesCleanRSpin runs the random axis, crashes included,
// against a correct recoverable lock: no run may be flagged.
func TestRandomCrashesCleanRSpin(t *testing.T) {
	cfg := mutex.Config{Procs: 4, Width: 8, Model: sim.CC, Algorithm: rspin.New(), Passes: 2}
	rep := runRandom(t, cfg, RandomCrashes{Runs: 50, MaxCrashes: 2 * 4})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 50 {
		t.Errorf("runs = %d, want 50", rep.Runs)
	}
}
