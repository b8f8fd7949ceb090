package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// tinyRun runs one workload at the tiny size and returns the exit code, the
// full output and the decoded result line.
func tinyRun(t *testing.T, o options) (int, string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := execute(o, &stdout, &stderr)
	out := stdout.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, out, stderr.String())
	}
	return code, out, res
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	args := []string{"--workload", workload, "--seconds", "0.3"}
	if trace {
		args = append(args, "--trace", "1")
	}
	o, err := parseOptions(args, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	o.size = sizeTiny
	return o
}

// TestTinyRunsReportEveryMetric runs each workload at the tiny size, untraced
// and traced, and checks that the result line carries exactly the declared
// metrics with their units and that the report prints each by name and unit.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			code, out, res := tinyRun(t, tinyOptions(t, name, trace))
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%t: exit %d, result %+v\n%s", name, trace, code, res, out)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if !strings.Contains(out, " "+d.name+" ") || !strings.Contains(out, " "+d.unit+" ") {
					t.Errorf("%s trace=%t: report does not print %s with its unit %s", name, trace, d.name, d.unit)
				}
			}
			for _, name := range []string{"cpu_s", "wall_s", "setup_s", "peak_rss_mb", "passages_per_s", "states_per_s", "error_rate"} {
				if !strings.Contains(out, "  "+name+" ") {
					t.Errorf("report does not print %s:\n%s", name, out)
				}
			}
			if !strings.Contains(out, "host: gomaxprocs=") {
				t.Errorf("report carries no host facts:\n%s", out)
			}
		}
	}
}

// TestWrongPinFails injects one wrong pinned value per workload: the run
// must count failed operations, report correct=false and exit non-zero.
func TestWrongPinFails(t *testing.T) {
	wrong := map[string]map[string]int64{
		"serve-zipf/tiny/seed=1": {"passages": -1},
		"check-n3/tiny":          {"watree.states_visited": 1},
		"adversary-n256/tiny":    {"w4.forced_rmrs": 1000},
	}
	for _, name := range workloadNames() {
		o := tinyOptions(t, name, false)
		o.pins = wrong
		code, out, res := tinyRun(t, o)
		if code == 0 || res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("%s: wrong pin not registered: exit %d, result %+v\n%s", name, code, res, out)
		}
		if !strings.Contains(out, "FAIL: ") {
			t.Errorf("%s: report names no failure:\n%s", name, out)
		}
	}
}

// TestPinnedKeysAreOutputs guards against a pin that can never match: every
// pinned key must be an output the workload produces.
func TestPinnedKeysAreOutputs(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloadByName(name)
		j, err := w.prepare(defaultSeed, sizeTiny)
		if err != nil {
			t.Fatal(err)
		}
		out := j.rep(nil)
		if out.failed != 0 {
			t.Fatalf("%s: %v", name, out.failures)
		}
		for key, pins := range pinned {
			if !strings.HasPrefix(key, name+"/") {
				continue
			}
			for k := range pins {
				if _, ok := out.outputs[k]; !ok {
					t.Errorf("%s: pinned key %s is not an output", key, k)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches checks the declared workloads and metrics in the
// repository's BENCHMARK.json against the ones this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: declared %s %s, program reports %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestClassify(t *testing.T) {
	f := func(names ...string) []frame {
		out := make([]frame, len(names))
		for i, n := range names {
			out[i] = frame{name: n}
		}
		return out
	}
	cases := []struct {
		frames []frame
		want   string
	}{
		{f("runtime.chanrecv1", "rme/internal/sim.(*Proc).announce", "rme/internal/sim.(*Proc).Write"), "cpu.sim.gate"},
		{f("runtime.chansend", "runtime.chansend1", "rme/internal/sim.(*Machine).Step"), "cpu.sim.gate"},
		{f("runtime.mallocgc", "rme/internal/sim.(*Machine).Step"), "cpu.sim.step"},
		{[]frame{{name: "rme/internal/sim.hashBuf", file: "/src/internal/sim/fingerprint.go"}}, "cpu.sim.fingerprint"},
		{f("rme/internal/algorithms/watree.(*Lock).enter", "rme/internal/sim.(*Proc).runOnce"), "cpu.algorithms"},
		{f("rme/internal/word.Width.Mask", "rme/internal/sim.(*Machine).Step"), "cpu.word"},
		{f("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), "cpu.gc"},
		{f("runtime.gcAssistAlloc", "runtime.mallocgc", "rme/internal/check.(*explorer).dfs"), "cpu.gc"},
		{f("rme/internal/telemetry.(*Counter).Add", "rme/internal/check.(*explorer).dfs"), "cpu.observability"},
		{f("runtime.runqget", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"), gateInferred},
		{f("runtime/pprof.profileWriter"), "cpu.observability"},
		{f("runtime.sysmon", "runtime.mstart1"), "cpu.unattributed"},
		{f("rme/internal/hiding.Search"), "cpu.unattributed"},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestParseProfile decodes a real CPU profile of a busy loop.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x++
	}
	pprof.StopCPUProfile()
	p := newCPUProfile()
	if err := p.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Fatalf("no samples decoded from a 300ms busy loop (x=%d)", x)
	}
	var sum int64
	for _, b := range cpuBuckets {
		sum += p.buckets[b]
	}
	if sum != p.total {
		t.Errorf("buckets hold %d of %d samples", sum, p.total)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(v))
	}
}
