package main

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"rme/internal/perflog"
	"rme/internal/telemetry"
)

// workers is the engine and checker worker count. GOMAXPROCS is 1 (see
// execute): on a shared host, two threads handing goroutines to each other
// measure how the host schedules them, and one thread's CPU time leaves out
// the time the host kept it waiting. More workers would only take turns on
// that thread, and their busy times would overlap.
const workers = 1

// setupsPerRep is the number of set-up samples taken after every
// repetition, once the heap is warm, so the samples spread over the whole
// run. Samples taken in a fresh process, before any repetition, run slower
// and spread more: its heap has not yet been mapped.
const setupsPerRep = 10

// minCPUSamples is the sample count below which the attribution gate is not
// applied: a tiny run's few samples cannot support a share.
const minCPUSamples = 100

// maxUnattributed is the largest share of CPU samples the layer buckets may
// leave unattributed before a traced run fails.
const maxUnattributed = 0.05

// runReport is one workload's measured run.
type runReport struct {
	w       *workload
	o       options
	pinKey  string
	pins    map[string]int64
	setups  []float64 // seconds per prepare call, one per timed batch
	plain   []outcome // untraced repetitions
	traced  []outcome // repetitions with telemetry and spans
	allocs  []float64 // heap bytes allocated per untraced repetition
	gcs     []float64 // GC cycles per untraced repetition
	cpu     *cpuProfile
	peakRSS float64
	// profiled counts the CPU-profiled repetitions. They run without
	// telemetry, so cpu.observability shows what the event path costs when
	// it is off.
	profiled int

	attempted, failed int64
	failures          []string
	// first holds the first repetition's outputs; every later one must match.
	first map[string]int64
}

// repKind is what a repetition records besides its outputs.
type repKind int

const (
	untracedRep repKind = iota // wall time, allocations and GC cycles
	tracedRep                  // telemetry registry and spans
	profiledRep                // CPU profile, no telemetry
)

// kindOf cycles through the three kinds with --trace 1; without it every
// repetition is untraced.
func kindOf(trace bool, i int) repKind {
	if !trace {
		return untracedRep
	}
	return repKind(i % 3)
}

// measure runs one workload for the invocation's time budget: set-up
// samples, then repetitions of the fixed work (cycling through untraced,
// traced and profiled ones with --trace 1), checking every repetition's
// outputs.
func measure(w *workload, o options) (*runReport, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	r := &runReport{w: w, o: o, pinKey: pinKey(w, o.size, o.seed), cpu: newCPUProfile()}
	r.pins = o.pins[r.pinKey]

	j, err := w.prepare(o.seed, o.size)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	var (
		spans []span
		ledg  []*perflog.Manifest
	)
	for i := 0; ; i++ {
		repStart := time.Now()
		kind := kindOf(o.trace, i)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var tr *tracer
		var prof bytes.Buffer
		switch kind {
		case tracedRep:
			spans = append(spans, span{Name: "rep", ID: len(spans) + 1, StartNS: time.Since(start).Nanoseconds()})
			tr = &tracer{reg: telemetry.New(), epoch: start, parent: len(spans), spans: &spans, durations: map[string]float64{}}
		case profiledRep:
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		out := j.rep(tr)
		switch kind {
		case tracedRep:
			spans[tr.parent-1].EndNS = time.Since(start).Nanoseconds()
		case profiledRep:
			pprof.StopCPUProfile()
			if err := r.cpu.add(prof.Bytes()); err != nil {
				return nil, err
			}
		}
		runtime.ReadMemStats(&after)

		r.check(&out)
		r.attempted += out.attempted
		r.failed += out.failed
		r.failures = append(r.failures, out.failures...)
		switch kind {
		case untracedRep:
			r.plain = append(r.plain, out)
			r.allocs = append(r.allocs, float64(after.TotalAlloc-before.TotalAlloc))
			r.gcs = append(r.gcs, float64(after.NumGC-before.NumGC))
			ledg = append(ledg, r.manifest(j, out))
		case tracedRep:
			r.traced = append(r.traced, out)
		case profiledRep:
			r.profiled++
		}

		runtime.GC()
		for n := 0; n < setupsPerRep; n++ {
			if err := r.sampleSetup(); err != nil {
				return nil, err
			}
		}

		enough := len(r.plain) > 0 && (!o.trace || len(r.traced) > 0 && r.profiled > 0)
		if enough && time.Since(start)+time.Since(repStart) > budget {
			break
		}
	}
	r.peakRSS = peakRSSMB()

	if o.out != "" {
		if err := perflog.Append(filepath.Join(o.out, "ledger.jsonl"), ledg...); err != nil {
			return nil, err
		}
		if o.trace {
			if err := writeSpans(o.out, w.name, spans); err != nil {
				return nil, err
			}
		}
	}
	if o.trace && r.cpu.total >= minCPUSamples && r.cpu.share("cpu.unattributed") > maxUnattributed {
		r.failures = append(r.failures, fmt.Sprintf("layer buckets attribute only %.1f%% of %d CPU samples (need %.0f%%)",
			100*(1-r.cpu.share("cpu.unattributed")), r.cpu.total, 100*(1-maxUnattributed)))
	}
	return r, nil
}

// sampleSetup times one batch of the workload's setupBatch set-ups with a
// single pair of CPU-time reads and records the CPU time per set-up.
func (r *runReport) sampleSetup() error {
	start := cpuSeconds()
	for n := 0; n < r.w.setupBatch; n++ {
		if _, err := r.w.prepare(r.o.seed, r.o.size); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	r.setups = append(r.setups, (cpuSeconds()-start)/float64(r.w.setupBatch))
	return nil
}

// check compares a repetition's outputs with the pinned values and with the
// run's first repetition (outputs are deterministic, so every repetition
// must agree). A mismatch fails every operation of the repetition that had
// not already failed.
func (r *runReport) check(out *outcome) {
	if out.outputs == nil {
		return
	}
	var bad []string
	if r.pins != nil {
		bad = checkPins(r.pins, out.outputs)
	}
	if r.first == nil {
		r.first = out.outputs
	} else if !maps.Equal(r.first, out.outputs) {
		bad = append(bad, "outputs differ from the run's first repetition")
	}
	if len(bad) > 0 {
		out.fail(out.attempted-out.failed, "%s: %v", r.pinKey, bad)
	}
}

// manifest is one untraced repetition's ledger entry: its outputs as
// counters, its host timings as wall samples.
func (r *runReport) manifest(j job, out outcome) *perflog.Manifest {
	m := perflog.New("perfbench")
	m.Label = "perfbench"
	m.Provenance = perflog.Build()
	m.SetConfig("workload", r.w.name)
	m.SetConfig("size", r.o.size)
	for k, v := range j.config() {
		m.SetConfig(k, v)
	}
	for k, v := range out.outputs {
		m.Counter(k, v)
	}
	m.Counter("failed", out.failed)
	m.Sample("wall_s", out.wall)
	m.Sample("cpu_s", out.cpu)
	if out.passages > 0 {
		m.Sample("passages_per_s", float64(out.passages)/out.wall)
	}
	if out.states > 0 {
		m.Sample("states_per_s", float64(out.states)/out.wall)
	}
	return m
}

// wall is the median host time of the untraced repetitions' fixed work.
func (r *runReport) wall() float64 {
	return median(field(r.plain, func(o outcome) float64 { return o.wall }))
}

// cpuTime is the median process CPU time of the untraced repetitions' fixed
// work.
func (r *runReport) cpuTime() float64 {
	return median(field(r.plain, func(o outcome) float64 { return o.cpu }))
}

func (r *runReport) steps() float64 {
	if len(r.plain) == 0 {
		return 0
	}
	return float64(r.plain[0].steps)
}

// endToEnd returns the untraced metrics.
func (r *runReport) endToEnd() map[string]float64 {
	return map[string]float64{
		"cpu_s":       r.cpuTime(),
		"setup_s":     median(r.setups),
		"peak_rss_mb": r.peakRSS,
	}
}

// perLayer returns the traced metrics: medians over traced repetitions for
// what the layers report, medians over untraced repetitions for costs per
// step, and the pooled CPU profile.
func (r *runReport) perLayer() map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		vals := field(r.traced, func(o outcome) float64 { return o.layer[d.name] })
		m[d.name] = median(vals)
	}
	for _, b := range cpuBuckets {
		m[b] = r.cpu.share(b)
	}
	m[gateInferred] = r.cpu.share(gateInferred)
	steps := r.steps()
	tracedWall := median(field(r.traced, func(o outcome) float64 { return o.wall }))
	m["cpu.samples"] = float64(r.cpu.total)
	m["sim.steps"] = steps
	m["sim.ns_per_step"] = ratio(r.cpuTime()*1e9, steps)
	m["gc.alloc_bytes_per_step"] = ratio(median(r.allocs), steps)
	m["gc.cycles"] = median(r.gcs)
	m["trace.overhead_s"] = tracedWall - r.wall()
	return m
}

func (r *runReport) correct() bool { return r.failed == 0 && len(r.failures) == 0 }

// result is this workload's final output line.
func (r *runReport) result() result {
	defs, vals := endToEnd, r.endToEnd()
	if r.o.trace {
		defs, vals = perLayer, r.perLayer()
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

// print writes the human-readable report: every metric by name and unit,
// with the sample counts behind it.
func (r *runReport) print(w io.Writer) {
	seed := fmt.Sprintf("seed=%d", r.o.seed)
	if !r.w.usesSeed {
		seed += " (ignored: fixed inputs)"
	}
	fmt.Fprintf(w, "== %s %s size=%s trace=%t: %d untraced + %d traced + %d profiled repetitions, %d set-up samples\n",
		r.w.name, seed, r.o.size, r.o.trace, len(r.plain), len(r.traced), r.profiled, len(r.setups))
	spread := func(v []float64) string {
		q1, q3 := quartiles(v)
		return fmt.Sprintf("median of %d (q1 %.4f, q3 %.4f)", len(v), q1, q3)
	}
	e2e := r.endToEnd()
	for _, d := range endToEnd {
		note := ""
		switch d.name {
		case "cpu_s":
			note = spread(field(r.plain, func(o outcome) float64 { return o.cpu }))
		case "setup_s":
			note = fmt.Sprintf("median of %d batches of %d set-ups", len(r.setups), r.w.setupBatch)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", d.name, e2e[d.name], d.unit, note)
	}
	fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", "wall_s", r.wall(), "s",
		spread(field(r.plain, func(o outcome) float64 { return o.wall })))
	rate := func(name, unit, only string, count int64) {
		if count == 0 {
			fmt.Fprintf(w, "  %-28s %14s %-6s %s only\n", name, "-", unit, only)
			return
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s\n", name, ratio(float64(count), r.wall()), unit)
	}
	var passages, states int64
	if len(r.plain) > 0 {
		passages, states = r.plain[0].passages, r.plain[0].states
	}
	rate("passages_per_s", "1/s", "serve-zipf", passages)
	rate("states_per_s", "1/s", "check-n3", states)
	fmt.Fprintf(w, "  %-28s %14.6g %-6s %d failed of %d attempted\n", "error_rate",
		ratio(float64(r.failed), float64(r.attempted)), "ratio", r.failed, r.attempted)
	if r.pins != nil {
		fmt.Fprintf(w, "  outputs: checked against %d pinned values (%s)\n", len(r.pins), r.pinKey)
	} else {
		fmt.Fprintf(w, "  outputs: no pinned values for %s; invariants and repeatability checked\n", r.pinKey)
	}
	if r.o.trace {
		pl := r.perLayer()
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", d.name, pl[d.name], d.unit, d.moves)
		}
		if r.cpu.share("cpu.unattributed") > 0 {
			for _, s := range r.cpu.topUnattributed(5) {
				fmt.Fprintf(w, "    unattributed: %s\n", s)
			}
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL: %s\n", f)
	}
}

func field(outs []outcome, f func(outcome) float64) []float64 {
	out := make([]float64, len(outs))
	for i, o := range outs {
		out[i] = f(o)
	}
	return out
}

// median of the values (0 when there are none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the same exclusive
// method as Python's statistics.quantiles(n=4); with fewer than two values
// both are the median.
func quartiles(v []float64) (float64, float64) {
	if len(v) < 2 {
		m := median(v)
		return m, m
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		k := int(pos)
		switch {
		case k < 1:
			return s[0]
		case k >= len(s):
			return s[len(s)-1]
		}
		return s[k-1] + (pos-float64(k))*(s[k]-s[k-1])
	}
	return at(0.25), at(0.75)
}
