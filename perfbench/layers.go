package main

import (
	"strings"
	"time"

	"rme/internal/adversary"
	"rme/internal/service"
	"rme/internal/telemetry"
)

// metricDef is one reported metric. moves records, for a per-layer metric,
// which end-to-end metric it is expected to move and on which workload.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the untraced run's metrics; every workload reports each one.
var endToEnd = []metricDef{
	{name: "cpu_s", unit: "s"},
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer are the traced run's metrics. Every workload reports each one; a
// layer the workload does not reach reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{}
	for _, b := range cpuBuckets {
		d := metricDef{name: b, unit: "share"}
		switch b {
		case "cpu.sim.gate":
			d.moves = "passages_per_s and cpu_s on serve-zipf, states_per_s and cpu_s on check-n3; barely cpu_s on adversary-n256"
		case "cpu.sim.fingerprint":
			d.moves = "states_per_s on check-n3; nothing on serve-zipf"
		case "cpu.sim.step", "cpu.word":
			d.moves = "their sim.(*Machine).CachedCells part (its loop, and the word.Bitset tests inside it): cpu_s on adversary-n256 only"
		case "cpu.adversary":
			d.moves = "cpu_s on adversary-n256 only"
		case "cpu.gc":
			d.moves = "cpu_s on every workload; peak_rss_mb on check-n3"
		case "cpu.observability":
			d.moves = "stays near 0; a rise means the event path reached the hot path"
		case "cpu.unattributed":
			d.moves = "must stay below 0.05 (the run fails otherwise)"
		}
		defs = append(defs, d)
		if b == "cpu.sim.gate" {
			defs = append(defs, metricDef{name: gateInferred, unit: "share",
				moves: "the part of cpu.sim.gate from scheduler stacks with no layer frame (idle processors and worker parks too)"})
		}
	}
	return append(defs,
		metricDef{name: "cpu.samples", unit: "count", moves: "base of the cpu.* shares"},
		metricDef{name: "sim.steps", unit: "count", moves: "fixed by the workload (adversary-n256 counts its final schedules only)"},
		metricDef{name: "sim.ns_per_step", unit: "ns", moves: "passages_per_s and cpu_s on serve-zipf, states_per_s and cpu_s on check-n3; barely cpu_s on adversary-n256"},
		metricDef{name: "gc.alloc_bytes_per_step", unit: "B", moves: "cpu_s on every workload; peak_rss_mb on check-n3"},
		metricDef{name: "gc.cycles", unit: "count", moves: "cpu_s on every workload; peak_rss_mb on check-n3"},
		metricDef{name: "trace.overhead_s", unit: "s", moves: "traced wall minus untraced wall"},

		metricDef{name: "service.run_s", unit: "s"},
		metricDef{name: "service.rounds", unit: "count"},
		metricDef{name: "service.arrivals", unit: "count"},
		metricDef{name: "service.pending_end", unit: "count"},
		metricDef{name: "service.serial_s", unit: "s", moves: "passages_per_s on serve-zipf"},
		metricDef{name: "engine.runs", unit: "count"},
		metricDef{name: "engine.busy_s", unit: "s"},
		metricDef{name: "engine.utilization", unit: "share", moves: "passages_per_s on serve-zipf"},
		metricDef{name: "engine.session_reuse_ratio", unit: "share"},
		metricDef{name: "mutex.passages", unit: "count"},
		metricDef{name: "mutex.steps_per_passage", unit: "steps"},

		metricDef{name: "check.exhaustive_s.watree", unit: "s"},
		metricDef{name: "check.exhaustive_s.rspin", unit: "s"},
		metricDef{name: "check.states_visited", unit: "count"},
		metricDef{name: "check.sleep_skips", unit: "count"},
		metricDef{name: "check.revisit_ratio", unit: "share", moves: "states_per_s on check-n3; nothing on serve-zipf"},
		metricDef{name: "check.restore_len.p50", unit: "steps"},
		metricDef{name: "check.restore_len.p99", unit: "steps"},
		metricDef{name: "sim.replay_steps", unit: "count"},
		metricDef{name: "sim.replay_ratio", unit: "share", moves: "states_per_s on check-n3; nothing on serve-zipf"},

		metricDef{name: "adversary.new_s", unit: "s"},
		metricDef{name: "adversary.run_s", unit: "s"},
		metricDef{name: "adversary.rounds", unit: "count"},
		metricDef{name: "adversary.replays", unit: "count"},
		metricDef{name: "adversary.rollbacks", unit: "count"},
		metricDef{name: "adversary.forced_rmrs", unit: "count"},
	)
}()

// span is one timed call into a layer, relative to the run's start.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records the spans of traced repetitions and hands the layers a
// fresh telemetry registry for each one. A nil tracer (untraced repetition)
// only times calls.
type tracer struct {
	reg    *telemetry.Registry
	epoch  time.Time
	parent int
	spans  *[]span
	// durations sums span durations by name within the repetition.
	durations map[string]float64
}

func (t *tracer) traced() bool { return t != nil }

func (t *tracer) registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// span times fn, records it as a child of the repetition's span when
// traced, and returns its duration in host seconds and the process CPU
// seconds it used.
func (t *tracer) span(name string, fn func()) (wall, cpu float64) {
	cpu0 := cpuSeconds()
	start := time.Now()
	fn()
	end := time.Now()
	cpu = cpuSeconds() - cpu0
	d := end.Sub(start).Seconds()
	if t != nil {
		*t.spans = append(*t.spans, span{
			Name: name, ID: len(*t.spans) + 1, Parent: t.parent,
			StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
		})
		t.durations[name] += d
	}
	return d, cpu
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func serveLayer(tr *tracer, rep *service.Report, workers int, runS float64) map[string]float64 {
	s := tr.reg.Snapshot()
	get := func(name string) float64 {
		v, _ := s.Get(name)
		return float64(v)
	}
	busy := get("engine_busy_ns") / 1e9
	reuse, build := get("engine_session_reuse"), get("engine_session_build")
	passages := get("service_passages")
	return map[string]float64{
		"service.run_s":              runS,
		"service.rounds":             get("service_rounds"),
		"service.arrivals":           get("service_arrivals"),
		"service.pending_end":        get("service_outstanding"),
		"service.serial_s":           runS - busy/float64(workers),
		"engine.runs":                get("engine_runs"),
		"engine.busy_s":              busy,
		"engine.utilization":         ratio(busy, runS*float64(workers)),
		"engine.session_reuse_ratio": ratio(reuse, reuse+build),
		"mutex.passages":             passages,
		"mutex.steps_per_passage":    ratio(float64(rep.Steps), passages),
	}
}

func checkLayer(tr *tracer) map[string]float64 {
	s := tr.reg.Snapshot()
	get := func(name string) float64 {
		v, _ := s.Get(name)
		return float64(v)
	}
	visited, pruned := get("check_states_visited"), get("check_states_pruned")
	machine, replay := get("check_machine_steps"), get("check_replay_steps")
	m := map[string]float64{
		"check.exhaustive_s.watree": tr.durations["check.Exhaustive.watree"],
		"check.exhaustive_s.rspin":  tr.durations["check.Exhaustive.rspin"],
		"check.states_visited":      visited,
		"check.sleep_skips":         get("check_sleep_pruned"),
		"check.revisit_ratio":       ratio(pruned, visited+pruned),
		"sim.replay_steps":          replay,
		"sim.replay_ratio":          ratio(replay, machine),
	}
	for _, h := range s.Histograms {
		if h.Name == "check_restore_replay_len" {
			m["check.restore_len.p50"] = histQuantile(h, 0.50)
			m["check.restore_len.p99"] = histQuantile(h, 0.99)
		}
	}
	return m
}

// histQuantile reads a quantile off a bucketed histogram as the upper bound
// of the bucket holding it; the +Inf bucket reads as the largest finite
// bound.
func histQuantile(h telemetry.HistPoint, q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := int64(q*float64(h.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.Buckets {
		seen += c
		if seen >= rank {
			if i < len(h.Bounds) {
				return float64(h.Bounds[i])
			}
			break
		}
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

func adversaryLayer(tr *tracer, reports []*adversary.Report) map[string]float64 {
	s := tr.reg.Snapshot()
	rounds, _ := s.Get("adversary_rounds")
	m := map[string]float64{"adversary.rounds": float64(rounds)}
	for name, d := range tr.durations {
		switch {
		case strings.HasPrefix(name, "adversary.New."):
			m["adversary.new_s"] += d
		case strings.HasPrefix(name, "adversary.Run."):
			m["adversary.run_s"] += d
		}
	}
	for _, r := range reports {
		if r == nil {
			continue
		}
		m["adversary.replays"] += float64(r.Replays)
		m["adversary.rollbacks"] += float64(r.RemovalRollbacks)
		m["adversary.forced_rmrs"] += float64(r.ForcedRMRs())
	}
	return m
}
