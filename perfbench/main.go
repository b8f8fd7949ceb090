// Command perfbench is the repository benchmark. It drives three
// closed-loop workloads through the public Go entry points of the service,
// checker and adversary layers, checks every deterministic output against
// pinned values (or, for an unpinned seed, against the workload's
// invariants), and prints its metrics by name and unit.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 40 --trace 0
//
// --workload is serve-zipf, check-n3, adversary-n256 or all. A run repeats
// the workload's fixed work until --seconds have passed, on one thread, and
// reports medians over the repetitions. With --trace 0 the last line is one JSON object
// holding the end-to-end metrics; with --trace 1 untraced and traced
// repetitions alternate and it holds the per-layer metrics instead. The
// exit code is non-zero whenever an output is wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// size is sizeFull for every command-line run; self-tests set sizeTiny.
	size string
	out  string
	// pins overrides the pinned-output table (self-tests inject wrong pins).
	pins map[string]map[string]int64
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{size: sizeFull, pins: pinned}
	fs.StringVar(&o.workload, "workload", "all", "serve-zipf, check-n3, adversary-n256 or all")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed for the generated inputs (serve-zipf arrivals)")
	fs.Float64Var(&o.seconds, "seconds", 40, "measuring time per workload; at least one repetition always runs")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.out, "out", "", "directory for the run ledger and span files (empty = none)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	o.trace = *traceFlag == 1
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	if o.workload != "all" && workloadByName(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	return o, nil
}

// result is the final output line: the verdict, the operation counts and
// the metrics, each with its unit.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes the invocation and returns the process exit code: 0 when
// every output checked out, 1 on a wrong output or a failed attribution
// check, 2 on a usage or set-up error (no result line is printed then).
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return execute(o, stdout, stderr)
}

// execute measures the selected workloads, prints each one's report and
// the final result line, and returns the exit code.
func execute(o options, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(1)
	host := readHost()
	fmt.Fprintf(stdout, "host: %s\n", host)

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	var last result
	for _, name := range names {
		rep, err := measure(workloadByName(name), o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 2
		}
		rep.print(stdout)
		last = rep.result()
		total.Correct = total.Correct && last.Correct
		total.Attempted += last.Attempted
		total.Failed += last.Failed
		for k, m := range last.Metrics {
			total.Metrics[name+"."+k] = m
		}
	}
	if len(names) > 1 {
		last = total
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !last.Correct {
		return 1
	}
	return 0
}
