// wordsize sweeps the memory word width w and prints the paper's headline
// tradeoff from both sides: the measured worst-case RMRs per passage of the
// Katzan–Morrison-style tree (the O(log_w n) upper bound) next to the
// Theorem 1 lower-bound shape min(log_w n, log n / log log n).
package main

import (
	"fmt"
	"log"

	"rme"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 256
	widths := []rme.Width{2, 4, 8, 16, 32, 64}

	fmt.Printf("word-size RMR tradeoff, n = %d processes (CC model)\n\n", n)
	fmt.Printf("%4s  %20s  %22s  %10s\n", "w", "measured max/passage", "upper bound ceil(log_w n)", "lower bound")
	for _, w := range widths {
		s, err := rme.NewSession(rme.Config{
			Procs:     n,
			Width:     w,
			Model:     rme.CC,
			Algorithm: rme.MustAlgorithm("watree"),
			Passes:    2,
		})
		if err != nil {
			return err
		}
		if err := s.RunRoundRobin(); err != nil {
			s.Close()
			return err
		}
		measured := s.MaxPassageRMRs(rme.CC)
		s.Close()

		depth := ceilLog(int(w), n)
		fmt.Printf("%4d  %20d  %22d  %10.2f\n",
			int(w), measured, depth, rme.TheoreticalLowerBound(w, n))
	}
	fmt.Println("\nthe measured cost tracks ceil(log_w n): wider words, fewer RMRs —")
	fmt.Println("and Theorem 1 says no algorithm can beat that shape on w-bit words.")
	return nil
}

func ceilLog(base, n int) int {
	l, p := 0, 1
	for p < n {
		p *= base
		l++
	}
	return l
}
