package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"rme"
)

// captureStdout runs fn with stdout redirected to a pipe and returns what it
// wrote. Stderr (wall-clock throughput) is silenced: the contract under test
// is that *stdout* is byte-identical across -parallel values.
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

// TestStdoutParityAcrossParallelism locks in the headline guarantee: the
// report (JSON and text) is byte-identical at -parallel 1 and 8, because
// the arrival stream is generated single-threaded and the engine merges
// shard batches in submission order.
func TestStdoutParityAcrossParallelism(t *testing.T) {
	base := []string{"-locks", "16", "-clients", "20000", "-passages", "1200",
		"-dist", "zipf:1.2", "-seed", "5"}
	for _, mode := range []string{"json", "text"} {
		args := base
		if mode == "json" {
			args = append([]string{"-json"}, base...)
		}
		one, err := captureStdout(t, func() error { return run(append([]string{"-parallel", "1"}, args...)) })
		if err != nil {
			t.Fatalf("%s -parallel 1: %v", mode, err)
		}
		eight, err := captureStdout(t, func() error { return run(append([]string{"-parallel", "8"}, args...)) })
		if err != nil {
			t.Fatalf("%s -parallel 8: %v", mode, err)
		}
		if one != eight {
			t.Fatalf("%s stdout differs between -parallel 1 and 8:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s",
				mode, one, eight)
		}
		if len(one) == 0 {
			t.Fatalf("%s: no output captured", mode)
		}
	}
}

// TestJSONReportShape decodes the -json output and spot-checks the fields
// the acceptance criteria name: throughput, p50/p99 latency, fairness, and
// aggregate RMR.
func TestJSONReportShape(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-json", "-locks", "8", "-clients", "10000",
			"-passages", "600", "-dist", "bursty:0.05", "-seed", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Passages int64   `json:"passages"`
		Thpt     float64 `json:"passages_per_1m_steps"`
		Latency  struct {
			P50 int64 `json:"p50"`
			P99 int64 `json:"p99"`
		} `json:"latency_steps"`
		Fairness struct {
			ClientsServed int     `json:"clients_served"`
			Jain          float64 `json:"jain_index"`
		} `json:"fairness"`
		RMRCC  int64 `json:"rmr_cc"`
		RMRDSM int64 `json:"rmr_dsm"`
		Shards []struct {
			Shard int `json:"shard"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("decode: %v\n%s", err, out)
	}
	if rep.Passages < 600 || rep.Thpt <= 0 || rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 {
		t.Fatalf("implausible report: %+v", rep)
	}
	if rep.Fairness.ClientsServed <= 0 || rep.Fairness.Jain <= 0 || rep.RMRCC <= 0 || rep.RMRDSM <= 0 {
		t.Fatalf("missing fairness/RMR: %+v", rep)
	}
	if len(rep.Shards) != 8 {
		t.Fatalf("want 8 shard rows, got %d", len(rep.Shards))
	}
}

// TestBadFlags covers the CLI's error paths.
func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-alg", "nosuchlock"},
		{"-model", "numa"},
		{"-model", "dms"},
		{"-dist", "pareto"},
		{"-dist", "zipf:0.5"},
		{"-locks", "0"},
		{"-clients", "0"},
		{"-passages", "0"},
	}
	for _, args := range cases {
		_, err := captureStdout(t, func() error { return run(args) })
		if err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}

// TestTopCellsOutput exercises the attribution path through the CLI.
func TestTopCellsOutput(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-locks", "2", "-clients", "100", "-passages", "60",
			"-dist", "uniform", "-seed", "1", "-top", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cells") {
		t.Fatalf("no top-cells section in output:\n%s", out)
	}
}

// TestEveryRegistryAlgorithm: every name in the shared registry resolves
// and runs here, so the CLIs accept one and the same set of algorithms.
func TestEveryRegistryAlgorithm(t *testing.T) {
	for _, name := range rme.AlgorithmNames() {
		args := []string{"-alg", name, "-w", "32", "-locks", "2", "-clients", "10", "-passages", "20"}
		if _, err := captureStdout(t, func() error { return run(args) }); err != nil {
			t.Errorf("-alg %s: %v", name, err)
		}
	}
}
