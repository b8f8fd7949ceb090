package cliutil

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartCPUProfileDisabled(t *testing.T) {
	stop, err := StartCPUProfile("")
	if err != nil {
		t.Fatal(err)
	}
	if stop == nil {
		t.Fatal("stop must never be nil")
	}
	stop() // must be safe to call
}

func TestStartCPUProfileWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err := StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record; the file is
	// valid (header + samples) even if no sample lands.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	stop()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("CPU profile is empty")
	}
}

func TestStartCPUProfileBadPath(t *testing.T) {
	stop, err := StartCPUProfile(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof"))
	if err == nil {
		t.Fatal("want error for unwritable path")
	}
	if stop == nil {
		t.Fatal("stop must never be nil, even on error")
	}
	stop()
}

func TestWriteHeapProfile(t *testing.T) {
	if err := writeHeapProfile(""); err != nil {
		t.Fatalf("empty path must be a no-op, got %v", err)
	}
	path := filepath.Join(t.TempDir(), "mem.pprof")
	if err := writeHeapProfile(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("heap profile is empty")
	}
	if err := writeHeapProfile(filepath.Join(t.TempDir(), "no", "such", "dir", "mem.pprof")); err == nil {
		t.Fatal("want error for unwritable path")
	}
}

// TestProfileStopError: a heap profile that cannot be written surfaces as
// the stop function's error, so the run that deferred it fails.
func TestProfileStopError(t *testing.T) {
	bad := &Profile{Mem: filepath.Join(t.TempDir(), "no", "such", "dir", "mem.pprof")}
	stop, err := bad.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Fatal("want stop error for unwritable -memprofile path")
	}
}
