package main

import (
	"fmt"
	"sort"
	"strings"

	"rme"
	"rme/internal/adversary"
	"rme/internal/check"
	"rme/internal/mutex"
	"rme/internal/service"
	"rme/internal/sim"
	"rme/internal/word"
)

const (
	sizeFull = "full"
	sizeTiny = "tiny"

	// defaultSeed is the seed whose serve-zipf outputs are pinned.
	defaultSeed = 1
)

// workload is one benchmark input set. Every workload is a closed loop: the
// benchmark makes one call into a layer and waits for it to return before
// making the next.
type workload struct {
	name string
	// usesSeed is false for workloads whose inputs are fixed; they ignore
	// --seed, and their ledger identity omits it.
	usesSeed bool
	// prepare makes the set-up calls (resolving algorithms and
	// distributions, constructing adversaries) and returns the job the
	// timed repetitions run. It is timed as setup_s and repeated several
	// times per run, so it must not change any state the job reads.
	prepare func(seed int64, size string) (job, error)
	// setupBatch is how many prepare calls one setup_s sample times with a
	// single pair of CPU-time reads: enough that a sample lasts milliseconds,
	// far above the reads' own cost and the microsecond they resolve.
	setupBatch int
}

// job is a prepared workload.
type job interface {
	// config is the semantic configuration recorded in the run ledger.
	config() map[string]string
	// rep runs the workload's fixed work once. tr records spans and carries
	// the telemetry registry on traced repetitions and is nil otherwise.
	rep(tr *tracer) outcome
}

// outcome is what one repetition produced.
type outcome struct {
	// wall is the host time spent in the timed layer calls (for
	// adversary-n256, Run but not New: construction is set-up), and cpu the
	// process CPU time they used.
	wall, cpu float64
	// attempted and failed count operations: passages, checker calls or
	// adversary constructions. failures describes each failed one.
	attempted, failed int64
	failures          []string
	// outputs are the repetition's deterministic outputs, checked against
	// the pinned table and recorded as ledger counters.
	outputs map[string]int64
	// steps is the number of simulator steps the outputs account for;
	// passages and states feed the workload-specific rates.
	steps, passages, states int64
	// layer holds per-layer values read from the telemetry registry and
	// the spans; filled on traced repetitions only.
	layer map[string]float64
}

func (o *outcome) fail(ops int64, format string, args ...any) {
	o.failed += ops
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

var workloads = []*workload{
	{name: "serve-zipf", usesSeed: true, prepare: prepareServe, setupBatch: 10_000},
	{name: "check-n3", prepare: prepareCheck, setupBatch: 10_000},
	{name: "adversary-n256", prepare: prepareAdversary, setupBatch: 1},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// ---------------------------------------------------------------- serve-zipf

type serveJob struct {
	cfg service.Config
}

func prepareServe(seed int64, size string) (job, error) {
	alg, err := rme.NewAlgorithm("watree")
	if err != nil {
		return nil, err
	}
	dist, err := service.ParseDist("zipf:1.1")
	if err != nil {
		return nil, err
	}
	cfg := service.Config{
		Locks:     64,
		Clients:   1_000_000,
		Passages:  200_000,
		Dist:      dist,
		Seed:      seed,
		Algorithm: alg,
		Width:     8,
		Model:     sim.CC,
		Parallel:  workers,
	}
	if size == sizeTiny {
		cfg.Locks, cfg.Clients, cfg.Passages = 8, 10_000, 2_000
	}
	return &serveJob{cfg: cfg}, nil
}

func (j *serveJob) config() map[string]string {
	c := j.cfg
	return map[string]string{
		"locks": fmt.Sprint(c.Locks), "clients": fmt.Sprint(c.Clients),
		"passages": fmt.Sprint(c.Passages), "dist": c.Dist.String(),
		"seed": fmt.Sprint(c.Seed), "alg": c.Algorithm.Name(),
		"w": fmt.Sprint(c.Width), "model": c.Model.String(),
	}
}

func (j *serveJob) rep(tr *tracer) outcome {
	cfg := j.cfg
	cfg.Telemetry = tr.registry()
	var (
		rep *service.Report
		err error
	)
	o := outcome{}
	o.wall, o.cpu = tr.span("service.Run", func() { rep, err = service.Run(cfg) })
	if err != nil {
		o.attempted = cfg.Passages
		o.fail(cfg.Passages, "service.Run: %v", err)
		return o
	}
	o.attempted = rep.Passages
	o.steps, o.passages = rep.Steps, rep.Passages
	o.outputs = map[string]int64{
		"passages":          rep.Passages,
		"rounds":            rep.Rounds,
		"steps":             rep.Steps,
		"rmr_cc":            rep.RMRCC,
		"rmr_dsm":           rep.RMRDSM,
		"latency_p50_steps": rep.Latency.P50,
		"latency_p99_steps": rep.Latency.P99,
		"jain_index_x10000": int64(rep.Fairness.JainIndex*1e4 + 0.5),
		"arrivals":          rep.Arrivals,
		"pending":           rep.Pending,
	}
	// Invariants that hold at every seed: a pinned seed is checked against
	// exact values on top of these.
	var bad []string
	if rep.Arrivals != rep.Passages+rep.Pending {
		bad = append(bad, fmt.Sprintf("arrivals %d != passages %d + pending %d", rep.Arrivals, rep.Passages, rep.Pending))
	}
	if rep.Passages < cfg.Passages {
		bad = append(bad, fmt.Sprintf("passages %d below the target %d", rep.Passages, cfg.Passages))
	}
	if s := shardPassages(rep); s != rep.Passages {
		bad = append(bad, fmt.Sprintf("shard passages sum to %d, report says %d", s, rep.Passages))
	}
	if len(bad) > 0 {
		o.fail(rep.Passages, "serve-zipf invariants: %s", strings.Join(bad, "; "))
	}
	if tr.traced() {
		o.layer = serveLayer(tr, rep, cfg.Parallel, o.wall)
	}
	return o
}

func shardPassages(rep *service.Report) int64 {
	var n int64
	for _, s := range rep.Shards {
		n += s.Passages
	}
	return n
}

// ---------------------------------------------------------------- check-n3

type checkJob struct {
	names []string
	cfgs  []check.Config
}

func prepareCheck(_ int64, size string) (job, error) {
	n := 3
	if size == sizeTiny {
		n = 2
	}
	watree, err := rme.NewAlgorithm("watree")
	if err != nil {
		return nil, err
	}
	rspin, err := rme.NewAlgorithm("rspin")
	if err != nil {
		return nil, err
	}
	return &checkJob{
		names: []string{"watree", "rspin"},
		cfgs: []check.Config{
			{
				Session:  mutex.Config{Procs: n, Width: 8, Model: sim.CC, Algorithm: watree},
				Parallel: workers, Memo: true, POR: true,
			},
			{
				Session:        mutex.Config{Procs: n, Width: 8, Model: sim.CC, Algorithm: rspin},
				CrashesPerProc: 1, MaxStates: 100_000,
				Parallel: workers, Memo: true, POR: true, Symmetry: true,
			},
		},
	}, nil
}

func (j *checkJob) config() map[string]string {
	c := map[string]string{}
	for i, name := range j.names {
		cfg := j.cfgs[i]
		c[name] = fmt.Sprintf("n=%d w=%d model=%s crashes=%d memo=%t por=%t symmetry=%t maxstates=%d",
			cfg.Session.Procs, cfg.Session.Width, cfg.Session.Model, cfg.CrashesPerProc,
			cfg.Memo, cfg.POR, cfg.Symmetry, cfg.MaxStates)
	}
	return c
}

func (j *checkJob) rep(tr *tracer) outcome {
	o := outcome{outputs: map[string]int64{}}
	for i, cfg := range j.cfgs {
		name := j.names[i]
		cfg.Telemetry = tr.registry()
		var (
			res *check.Result
			err error
		)
		wall, cpu := tr.span("check.Exhaustive."+name, func() { res, err = check.Exhaustive(cfg) })
		o.wall += wall
		o.cpu += cpu
		o.attempted++
		if err != nil {
			o.fail(1, "check.Exhaustive %s: %v", name, err)
			continue
		}
		ok := int64(0)
		if res.Ok() && res.DepthTruncated == 0 {
			ok = 1
		}
		o.outputs[name+".states_visited"] = int64(res.StatesVisited)
		o.outputs[name+".machine_steps"] = res.MachineSteps
		o.outputs[name+".replay_steps"] = res.ReplaySteps
		o.outputs[name+".ok"] = ok
		o.steps += res.MachineSteps
		o.states += int64(res.StatesVisited)
		if ok != 1 {
			o.fail(1, "check.Exhaustive %s: verdict not OK: %v (depth-truncated %d)", name, res.Err(), res.DepthTruncated)
		}
	}
	if tr.traced() {
		o.layer = checkLayer(tr)
	}
	return o
}

// ---------------------------------------------------------------- adversary-n256

type adversaryJob struct {
	cfgs []adversary.Config
}

func prepareAdversary(_ int64, size string) (job, error) {
	n := 256
	if size == sizeTiny {
		n = 16
	}
	alg, err := rme.NewAlgorithm("watree")
	if err != nil {
		return nil, err
	}
	j := &adversaryJob{}
	for _, w := range []word.Width{4, 8, 16, 64} {
		cfg := adversary.Config{Session: mutex.Config{Procs: n, Width: w, Model: sim.CC, Algorithm: alg}}
		// Construction is part of set-up: build and release each adversary
		// once so set-up time covers it and a broken configuration fails
		// before any timed work.
		adv, err := adversary.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("adversary.New w=%d: %w", w, err)
		}
		adv.Close()
		j.cfgs = append(j.cfgs, cfg)
	}
	return j, nil
}

func (j *adversaryJob) config() map[string]string {
	c := map[string]string{}
	for _, cfg := range j.cfgs {
		c[fmt.Sprintf("w%d", cfg.Session.Width)] = fmt.Sprintf("alg=%s n=%d model=%s",
			cfg.Session.Algorithm.Name(), cfg.Session.Procs, cfg.Session.Model)
	}
	return c
}

func (j *adversaryJob) rep(tr *tracer) outcome {
	o := outcome{outputs: map[string]int64{}}
	reports := make([]*adversary.Report, len(j.cfgs))
	for i, cfg := range j.cfgs {
		w := int(cfg.Session.Width)
		cfg.Telemetry = tr.registry()
		o.attempted++
		var (
			adv *adversary.Adversary
			rep *adversary.Report
			err error
		)
		tr.span(fmt.Sprintf("adversary.New.w%d", w), func() { adv, err = adversary.New(cfg) })
		if err != nil {
			o.fail(1, "adversary.New w=%d: %v", w, err)
			continue
		}
		wall, cpu := tr.span(fmt.Sprintf("adversary.Run.w%d", w), func() { rep, err = adv.Run() })
		o.wall += wall
		o.cpu += cpu
		adv.Close()
		if err != nil {
			o.fail(1, "adversary.Run w=%d: %v", w, err)
			continue
		}
		reports[i] = rep
		key := fmt.Sprintf("w%d.", w)
		o.outputs[key+"forced_rmrs"] = int64(rep.ForcedRMRs())
		o.outputs[key+"verified_replays"] = int64(rep.Replays)
		o.outputs[key+"invariant_violations"] = int64(len(rep.InvariantViolations))
		o.steps += int64(rep.Steps)
		if len(rep.InvariantViolations) > 0 {
			o.fail(1, "adversary w=%d: invariant violations: %s", w, strings.Join(rep.InvariantViolations, "; "))
		}
	}
	if tr.traced() {
		o.layer = adversaryLayer(tr, reports)
	}
	return o
}

// ---------------------------------------------------------------- pins

// pinned holds each workload's deterministic outputs, keyed by workload,
// size and (for seeded workloads) seed. They were recorded from the
// repository's own CLIs (rmeserve, rmecheck, rmeadversary) with the same
// configurations and match them exactly.
var pinned = map[string]map[string]int64{
	"serve-zipf/full/seed=1": {
		"passages":          200046,
		"rounds":            2878,
		"steps":             2787924,
		"rmr_cc":            2787924,
		"rmr_dsm":           1602169,
		"latency_p50_steps": 33,
		"latency_p99_steps": 77380,
		"jain_index_x10000": 12,
		"arrivals":          204088,
		"pending":           4042,
	},
	"check-n3/full": {
		"watree.states_visited": 284624,
		"watree.machine_steps":  2744798,
		"watree.replay_steps":   2441664,
		"watree.ok":             1,
		"rspin.states_visited":  100002,
		"rspin.machine_steps":   1791079,
		"rspin.replay_steps":    1618582,
		"rspin.ok":              1,
	},
	"adversary-n256/full": {
		"w4.forced_rmrs":           14,
		"w4.verified_replays":      255,
		"w4.invariant_violations":  0,
		"w8.forced_rmrs":           10,
		"w8.verified_replays":      255,
		"w8.invariant_violations":  0,
		"w16.forced_rmrs":          6,
		"w16.verified_replays":     255,
		"w16.invariant_violations": 0,
		"w64.forced_rmrs":          6,
		"w64.verified_replays":     255,
		"w64.invariant_violations": 0,
	},
}

// pinKey names a workload configuration in the pinned table.
func pinKey(w *workload, size string, seed int64) string {
	if w.usesSeed {
		return fmt.Sprintf("%s/%s/seed=%d", w.name, size, seed)
	}
	return w.name + "/" + size
}

// checkPins compares outputs with a pin set and describes every mismatch,
// in key order. A pinned key missing from the outputs is a mismatch too.
func checkPins(pins, outputs map[string]int64) []string {
	keys := make([]string, 0, len(pins))
	for k := range pins {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var bad []string
	for _, k := range keys {
		got, ok := outputs[k]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s missing (pinned %d)", k, pins[k]))
		case got != pins[k]:
			bad = append(bad, fmt.Sprintf("%s = %d, pinned %d", k, got, pins[k]))
		}
	}
	return bad
}
