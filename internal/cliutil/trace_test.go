package cliutil

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rme/internal/sim"
	"rme/internal/trace"
)

func parseTrace(t *testing.T, args ...string) (*Trace, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(new(strings.Builder))
	tr := TraceFlags(fs, "the test runs")
	return tr, fs.Parse(args)
}

func TestExportTrace(t *testing.T) {
	runs := []trace.Run{{Label: "unit", Procs: 1, Model: sim.CC}}
	off, err := parseTrace(t)
	if err != nil {
		t.Fatal(err)
	}
	if off.Enabled() || off.Format != trace.FormatJSONL {
		t.Fatalf("defaults: %+v", off)
	}
	if err := off.Write(new(strings.Builder), runs, sim.CC); err != nil {
		t.Fatalf("no -trace must be a no-op, got %v", err)
	}
	if _, err := parseTrace(t, "-traceformat", "bogus"); err == nil {
		t.Fatal("want parse error for unknown format")
	}
	path := filepath.Join(t.TempDir(), "t.jsonl")
	tr, err := parseTrace(t, "-trace", path)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Enabled() {
		t.Fatal("Enabled() = false with -trace set")
	}
	if err := tr.Write(new(strings.Builder), runs, sim.CC); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "unit") {
		t.Fatalf("exported trace missing run label:\n%s", blob)
	}
	chrome, err := parseTrace(t, "-traceformat", "chrome")
	if err != nil || chrome.Format != trace.FormatChrome {
		t.Fatalf("-traceformat chrome: %v, %v", chrome.Format, err)
	}
}

func TestSummarizeTraceTopZero(t *testing.T) {
	runs := []trace.Run{{Label: "unit", Procs: 1, Model: sim.CC}}
	var sb strings.Builder
	if err := (&Trace{}).Write(&sb, runs, sim.CC); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("top=0 must print nothing, got %q", sb.String())
	}
	if err := (&Trace{Top: 3}).Write(&sb, runs, sim.CC); err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 {
		t.Fatal("top=3 must print the attribution tables")
	}
}
