package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"rme/internal/perflog"
)

// hostFacts describe the machine and build, measured when the run starts.
type hostFacts struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Revision is the VCS revision stamped into the binary, or "unknown"
	// when it was built outside a git checkout.
	Revision string `json:"revision"`
	Dirty    bool   `json:"dirty,omitempty"`
}

func readHost() hostFacts {
	b := perflog.Build()
	h := hostFacts{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(), // the CPUs this process may run on, as nproc counts them
		CPUModel:   cpuModel(),
		GoVersion:  b.GoVersion,
		Revision:   b.Revision,
		Dirty:      b.Dirty,
	}
	if h.Revision == "" {
		h.Revision = "unknown"
	}
	return h
}

func (h hostFacts) String() string {
	rev := h.Revision
	if h.Dirty {
		rev += "+dirty"
	}
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s revision=%s",
		h.GOMAXPROCS, h.NProc, h.CPUModel, h.GoVersion, rev)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, falling back
// to the architecture name where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the CPU time (user + system) the process has used so far.
// The kernel leaves out time the process spent waiting for a CPU, including
// time a hypervisor gave its virtual CPU to another guest.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// writeSpans writes the traced repetitions' spans to <dir>/spans-<name>.json.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	blob, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+name+".json"), append(blob, '\n'), 0o644)
}
