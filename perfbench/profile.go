package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// cpuBuckets are the per-layer CPU metrics, in report order. Each sample of a
// CPU profile lands in exactly one bucket (see classify).
var cpuBuckets = []string{
	"cpu.sim.gate", "cpu.sim.fingerprint", "cpu.sim.step",
	"cpu.word", "cpu.memory", "cpu.mutex", "cpu.algorithms",
	"cpu.engine", "cpu.service", "cpu.check", "cpu.adversary",
	"cpu.observability", "cpu.gc", "cpu.unattributed",
}

// layerBucket maps the first path element under rme/internal/ to its bucket.
// trace and telemetry share the observability bucket; sim is split further
// by classify.
var layerBucket = map[string]string{
	"word": "cpu.word", "memory": "cpu.memory", "mutex": "cpu.mutex",
	"algorithms": "cpu.algorithms", "engine": "cpu.engine",
	"service": "cpu.service", "check": "cpu.check", "adversary": "cpu.adversary",
	"trace": "cpu.observability", "telemetry": "cpu.observability",
}

// gateFuncs are the sim step gate's own functions: the body side of the
// handshake (announce, announceWait, the body loop) and the controller's
// quiescence wait.
var gateFuncs = map[string]bool{
	"rme/internal/sim.(*Proc).announce":         true,
	"rme/internal/sim.(*Proc).announceWait":     true,
	"rme/internal/sim.(*Proc).runLoop":          true,
	"rme/internal/sim.(*Proc).launch":           true,
	"rme/internal/sim.(*Machine).waitQuiescent": true,
}

// handoffPrefixes name the runtime's channel, goroutine-switch and
// scheduler entry points; the helpers they call (run queues, futexes,
// runtime locks) sit leafward of them on the stack. Under a sim frame they are the step gate's handoff;
// on a stack with no layer frame (an M switching goroutines, or spinning for
// work after a handoff woke it) they are the switch the handoff caused.
var handoffPrefixes = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.closechan", "runtime.selectgo",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.newproc",
	"runtime.mcall", "runtime.park_m", "runtime.chanparkcommit", "runtime.schedule",
	"runtime.findRunnable", "runtime.execute", "runtime.gogo", "runtime.goexit0",
}

// gcPrefixes name garbage-collector work: background mark workers, mark
// assists charged to allocating goroutines, sweeping and scavenging.
var gcPrefixes = []string{
	"runtime.gc", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.scanframeworker", "runtime.greyobject",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.(*sweepLocked)", "runtime.(*scavengerState)", "runtime.wbBuf",
	"runtime.(*mheap).reclaim", "runtime.findObject", "runtime.(*gcBits)",
	"runtime.markBits", "runtime.(*mspan).markBitsForIndex", "runtime.bulkBarrier",
	"runtime.forEachP", "runtime.stopTheWorld", "runtime.startTheWorld",
}

// observabilityPrefixes are the profiler's own goroutine and signal path.
var observabilityPrefixes = []string{
	"runtime/pprof.", "runtime.sigprof", "runtime.(*cpuProfile)", "runtime.profBuf",
	"runtime.(*profBuf)",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// frame is one (possibly inlined) function of a sampled stack.
type frame struct {
	name, file string
}

// classify assigns one sampled stack, leaf first, to a CPU bucket:
//
//  1. garbage-collector work anywhere on the stack is cpu.gc;
//  2. otherwise the innermost rme/internal/<layer> frame names the bucket,
//     with sim split three ways: the gate functions and any runtime
//     channel or scheduler frame called from a sim frame are cpu.sim.gate,
//     fingerprint.go and symmetry.go are cpu.sim.fingerprint, and the rest
//     is cpu.sim.step;
//  3. with no layer frame on the stack, the profiler's own frames are
//     cpu.observability, and a runtime channel or scheduler frame marks the
//     goroutine switch a handoff started (gateInferred, which counts as
//     cpu.sim.gate and is reported on its own as well: the step gate makes
//     two switches per simulator step, far more than any other layer);
//  4. everything else is cpu.unattributed.
func classify(frames []frame) string {
	for _, f := range frames {
		if hasAnyPrefix(f.name, gcPrefixes) {
			return "cpu.gc"
		}
	}
	for i, f := range frames {
		rest, ok := strings.CutPrefix(f.name, "rme/internal/")
		if !ok {
			continue
		}
		layer := rest
		if k := strings.IndexAny(rest, "./"); k >= 0 {
			layer = rest[:k]
		}
		if layer != "sim" {
			if b, ok := layerBucket[layer]; ok {
				return b
			}
			return "cpu.unattributed"
		}
		if gateFuncs[f.name] {
			return "cpu.sim.gate"
		}
		for _, g := range frames[:i] {
			if hasAnyPrefix(g.name, handoffPrefixes) {
				return "cpu.sim.gate"
			}
		}
		if strings.HasSuffix(f.file, "internal/sim/fingerprint.go") || strings.HasSuffix(f.file, "internal/sim/symmetry.go") {
			return "cpu.sim.fingerprint"
		}
		return "cpu.sim.step"
	}
	for _, f := range frames {
		if hasAnyPrefix(f.name, observabilityPrefixes) {
			return "cpu.observability"
		}
	}
	for _, f := range frames {
		if hasAnyPrefix(f.name, handoffPrefixes) {
			return gateInferred
		}
	}
	return "cpu.unattributed"
}

// gateInferred is what classify returns for a scheduler stack with no layer
// frame. Such a sample is counted in cpu.sim.gate, and its share is also
// reported as cpu.sim.gate_inferred, because nothing on the stack proves the
// switch came from the step gate: idle processors looking for work and the
// parks of engine-pool and checker workers land here too.
const gateInferred = "cpu.sim.gate_inferred"

// cpuProfile accumulates bucketed sample counts over several profiles.
type cpuProfile struct {
	total   int64
	buckets map[string]int64
	// inferred counts the cpu.sim.gate samples that had no layer frame.
	inferred int64
	// unattributed keeps the heaviest stacks that fell through, for the
	// diagnostic printed when attribution is poor.
	unattributed map[string]int64
}

func newCPUProfile() *cpuProfile {
	return &cpuProfile{buckets: map[string]int64{}, unattributed: map[string]int64{}}
}

// add decodes one gzipped pprof CPU profile and buckets its samples.
func (c *cpuProfile) add(gz []byte) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var frames []frame
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				fn := p.funcs[fid]
				frames = append(frames, frame{name: p.str(fn.name), file: p.str(fn.file)})
			}
		}
		b := classify(frames)
		if b == gateInferred {
			c.inferred += s.count
			b = "cpu.sim.gate"
		}
		c.buckets[b] += s.count
		c.total += s.count
		if b == "cpu.unattributed" {
			names := make([]string, 0, 4)
			for k := 0; k < len(frames) && k < 4; k++ {
				names = append(names, frames[k].name)
			}
			c.unattributed[strings.Join(names, " < ")] += s.count
		}
	}
	return nil
}

// share is a bucket's fraction of all samples (0 with no samples).
func (c *cpuProfile) share(bucket string) float64 {
	if bucket == gateInferred {
		return ratio(float64(c.inferred), float64(c.total))
	}
	return ratio(float64(c.buckets[bucket]), float64(c.total))
}

// topUnattributed lists the heaviest unattributed stacks, heaviest first.
func (c *cpuProfile) topUnattributed(n int) []string {
	type kv struct {
		k string
		v int64
	}
	var all []kv
	for k, v := range c.unattributed {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	var out []string
	for i := 0; i < len(all) && i < n; i++ {
		out = append(out, fmt.Sprintf("%d  %s", all[i].v, all[i].k))
	}
	return out
}

// ---------------------------------------------------------------- pprof decoding

// profile is the subset of the pprof protobuf (profile.proto) that bucketing
// needs: samples as location ids with their count, locations as function
// ids (innermost inlined function first), functions as name and file string
// indexes, and the string table.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64
	funcs    map[uint64]function
	strs     []string
}

type sample struct {
	locs  []uint64
	count int64
}

type function struct {
	name, file int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locLines: map[uint64][]uint64{}, funcs: map[uint64]function{}}
	err = forFields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var values []int64
			if err := forFields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						values = append(values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = values[0]
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fids []uint64
			if err := forFields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return forFields(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locLines[id] = fids
		case 5: // function
			var id uint64
			var fn function
			if err := forFields(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcs[id] = fn
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// forFields walks the top-level fields of one protobuf message, passing
// varint values as v and length-delimited payloads as b.
func forFields(buf []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field that is either one varint or
// a packed run of them.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
