package rme_test

import (
	"fmt"

	"rme"
)

// ExampleNewSession runs a contended recoverable lock on the simulated
// machine and reads the RMR accounting.
func ExampleNewSession() {
	s, err := rme.NewSession(rme.Config{
		Procs:     16,
		Width:     16,
		Model:     rme.CC,
		Algorithm: rme.MustAlgorithm("watree"),
		Passes:    2,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer s.Close()
	if err := s.RunRoundRobin(); err != nil {
		fmt.Println(err)
		return
	}
	// 16 processes on 16-bit words: a single tree node, constant cost.
	fmt.Println("constant passage cost:", s.MaxPassageRMRs(rme.CC) < 25)
	// Output: constant passage cost: true
}

// ExampleNewAdversary forces the Theorem 1 lower bound on a real execution.
func ExampleNewAdversary() {
	adv, err := rme.NewAdversary(rme.AdversaryConfig{
		Session: rme.Config{
			Procs: 64, Width: 4, Model: rme.CC,
			Algorithm: rme.MustAlgorithm("watree"),
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer adv.Close()
	rep, err := adv.Run()
	if err != nil {
		fmt.Println(err)
		return
	}
	// ceil(log_4 64) = 3 tree levels: the adversary forces at least one RMR
	// per level on a survivor that never crashed and never entered the CS.
	fmt.Println("forced at least depth:", rep.ForcedRMRs() >= 3)
	fmt.Println("clean audit:", len(rep.InvariantViolations) == 0)
	// Output:
	// forced at least depth: true
	// clean audit: true
}
