package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rme/internal/sim"
	"rme/internal/trace"
)

// Trace bundles the trace-export flags (-trace, -traceformat, -top) of the
// tools that capture step-level traces. A bad -traceformat fails the flag
// parse, before any work runs.
type Trace struct {
	// Path receives the exported trace ("" = no export).
	Path string
	// Format is the export encoding.
	Format trace.Format
	// Top is the number of hottest cells/procs to print (0 = no summary).
	Top int
}

// TraceFlags registers the trace flags on fs; what names the traced runs in
// the help text (e.g. "the crash-free reference run").
func TraceFlags(fs *flag.FlagSet, what string) *Trace {
	t := &Trace{Format: trace.FormatJSONL}
	fs.StringVar(&t.Path, "trace", "", "export a step-level trace of "+what+" to this file")
	fs.Func("traceformat", "trace encoding: jsonl or chrome (Perfetto) (default jsonl)", func(s string) (err error) {
		t.Format, err = trace.ParseFormat(s)
		return err
	})
	fs.IntVar(&t.Top, "top", 0, "print the N hottest cells/procs of "+what+" (0 = off)")
	return t
}

// Enabled reports whether the runs need capturing: -trace or -top was set.
func (t *Trace) Enabled() bool { return t.Path != "" || t.Top > 0 }

// Write prints the hottest-cells / costliest-procs attribution of runs to w
// when -top is set, then exports runs to -trace and notes the export on
// stderr.
func (t *Trace) Write(w io.Writer, runs []trace.Run, model sim.Model) error {
	if t.Top > 0 {
		trace.WriteSummary(w, trace.Merge(runs), model, t.Top)
	}
	if t.Path == "" {
		return nil
	}
	if err := trace.WriteFile(t.Path, t.Format, runs); err != nil {
		return err
	}
	events := 0
	for _, r := range runs {
		events += len(r.Events)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%s, %d runs, %d events)\n", t.Path, t.Format, len(runs), events)
	return nil
}
