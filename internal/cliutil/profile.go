// Package cliutil holds the flag bundles shared by the cmd/ mains: the
// -version parse step, -model, pprof profiling, trace export, telemetry and
// the perf ledger. Each concern registers its flags in one place, so every
// tool spells, defaults and validates them the same way. Everything here
// writes its diagnostics to stderr — stdout belongs to the tools' reports,
// which must stay byte-identical across -parallel settings.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile bundles the pprof flags (-cpuprofile, -memprofile).
type Profile struct {
	// CPU is the CPU profile path ("" = off).
	CPU string
	// Mem is the heap profile path, written when the run stops ("" = off).
	Mem string
}

// ProfileFlags registers the profiling flags on fs and returns the holder to
// Start after flag parsing.
func ProfileFlags(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a pprof heap profile to this file")
	return p
}

// Start begins the CPU profile and returns a stop function for defer (never
// nil). Stop ends the CPU profile and writes the heap profile, returning the
// heap write's error; it runs on every exit path, so a run that failed is
// still profiled.
func (p *Profile) Start() (stop func() error, err error) {
	stopCPU, err := StartCPUProfile(p.CPU)
	if err != nil {
		return func() error { return nil }, err
	}
	return func() error {
		stopCPU()
		return writeHeapProfile(p.Mem)
	}, nil
}

// StartCPUProfile begins a CPU profile to the given path (empty = off) and
// returns a stop function for defer. The stop function is never nil.
func StartCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return func() {}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return func() {}, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
		}
	}, nil
}

// writeHeapProfile writes a heap profile to the given path (empty = no-op)
// after a final GC, so the profile reflects live allocations.
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
