package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"rme"
)

// captureStdout runs fn with stdout redirected to a pipe and returns what it
// wrote. Stderr (timings, notes) is silenced: the contract under test is
// that *stdout* is byte-identical across -parallel values.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = wr, devnull
	defer func() {
		os.Stdout, os.Stderr = oldOut, oldErr
		devnull.Close()
	}()
	done := make(chan string, 1)
	go func() {
		blob, _ := io.ReadAll(r)
		done <- string(blob)
	}()
	runErr := fn()
	wr.Close()
	out := <-done
	r.Close()
	return out, runErr
}

// TestStdoutParityAcrossParallelism locks in byte-identical sweep output at
// any -parallel value: constructions land by index, so row order never
// depends on completion order.
func TestStdoutParityAcrossParallelism(t *testing.T) {
	args := []string{"-alg", "watree", "-w", "8", "-sweep", "4,8,16"}
	one, err := captureStdout(t, func() error { return run(append([]string{"-parallel", "1"}, args...)) })
	if err != nil {
		t.Fatalf("-parallel 1: %v", err)
	}
	eight, err := captureStdout(t, func() error { return run(append([]string{"-parallel", "8"}, args...)) })
	if err != nil {
		t.Fatalf("-parallel 8: %v", err)
	}
	if one != eight {
		t.Fatalf("stdout differs between -parallel 1 and 8:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", one, eight)
	}
	if len(one) == 0 {
		t.Fatal("no output captured")
	}
}

// TestBadFlags covers the CLI's flag error paths: each must fail before any
// work runs, and a -model typo must not fall back to CC.
func TestBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-alg", "nosuchlock"}, `unknown algorithm "nosuchlock"`},
		{[]string{"-model", "dms"}, `unknown model "dms" (want cc or dsm)`},
		{[]string{"-traceformat", "bogus"}, `unknown format "bogus"`},
	} {
		_, err := captureStdout(t, func() error { return run(c.args) })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v): error %v, want %q", c.args, err, c.want)
		}
	}
}

// TestEveryRegistryAlgorithm: every name in the shared registry resolves
// and runs here, so the CLIs accept one and the same set of algorithms.
func TestEveryRegistryAlgorithm(t *testing.T) {
	for _, name := range rme.AlgorithmNames() {
		args := []string{"-alg", name, "-n", "4", "-w", "16"}
		if _, err := captureStdout(t, func() error { return run(args) }); err != nil {
			t.Errorf("-alg %s: %v", name, err)
		}
	}
}
