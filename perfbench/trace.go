package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"chameleon/internal/advisor"
	"chameleon/internal/alloctx"
	"chameleon/internal/core"
	"chameleon/internal/governor"
)

// span is one traced interval. Spans of one pass share its pass id; the
// root span of a pass has parent -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Pass   int32  `json:"pass"`
}

// tracer records spans in memory from one goroutine. A nil tracer records
// nothing, so untraced passes pay one nil check per span boundary.
type tracer struct {
	origin time.Time
	spans  []span
	cur    int32
	passes int32
}

func newTracer() *tracer { return &tracer{origin: time.Now(), cur: -1} }

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	if t.cur < 0 {
		t.passes++
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), Parent: t.cur, Pass: t.passes})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
	t.cur = t.spans[id].Parent
}

// durations reports every span's duration in ms, by name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// selfTimes reports every span's self time (duration minus its direct
// children) in ms, by name.
func (t *tracer) selfTimes() map[string][]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/1e6)
	}
	return out
}

// unattributed reports the share of "pass" root time no child span covers.
func (t *tracer) unattributed() float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var total, free int64
	for i, s := range t.spans {
		if s.Parent < 0 && s.Name == "pass" {
			total += s.End - s.Start
			free += s.End - s.Start - child[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(free) / float64(total)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rung is one step of the ablation ladder.
type rung struct {
	name string
	cfg  config
}

// ladder returns the ablation rungs for a workload whose own capture mode
// is mode: each enables one more layer (rung 4 swaps static labels for
// dynamic capture; rungs 5 and 6 use the workload's own mode).
func ladder(mode alloctx.Mode) []rung {
	return []rung{
		{"wrappers", config{meter: true}},
		{"+heap", config{heap: true, mode: alloctx.Static, meter: true}},
		{"+trace", config{heap: true, profile: true, mode: alloctx.Static, meter: true}},
		{"dynamic", config{heap: true, profile: true, mode: alloctx.Dynamic, meter: true}},
		{"+select", config{heap: true, profile: true, mode: mode, online: true, meter: true}},
		{"+verify", config{heap: true, profile: true, mode: mode, online: true, verify: true, meter: true}},
	}
}

// meterNanos reads a metered session's self-measured profiling cost (ns)
// and event counts per meter source; nil maps without a meter.
func meterNanos(s *core.Session) (nanos, events map[string]int64) {
	if s == nil || s.Governor == nil {
		return nil, nil
	}
	h := s.Governor.Health()
	return h.SourceNanos, h.SourceEvents
}

// recall is the share of planted pathologies the plan fixes.
func recall(plan *advisor.Plan, planted map[uint64][]string) float64 {
	if plan == nil || len(planted) == 0 {
		return 0
	}
	fixed := 0
	for key, fixes := range planted {
		e, ok := plan.Entry(key)
		if !ok {
			continue
		}
		for _, f := range fixes {
			if e.Decision.Impl.String() == f {
				fixed++
				break
			}
		}
	}
	return float64(fixed) / float64(len(planted))
}

// runTraced is the --trace 1 run: traced passes interleaved with untraced
// ones (for the tracing overhead and the Go runtime counters), then the
// ablation ladder, round robin over its rungs so host drift hits every
// rung alike. It fills vals with every per-layer metric.
func runTraced(inst instance, seconds float64, vals map[string]float64, log io.Writer, spansPath string, probes *hostProbes) (attempted, failed int) {
	tr := newTracer()
	gr := newGoReader()
	main := inst.main()
	tracedCfg := main
	tracedCfg.meter = true

	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	var tracedMs, untracedMs []float64
	locks := newHistogram()
	var gcCPU, gcCycles, mutexWait float64
	var untracedOps int
	var sched []uint64
	var schedBuckets []float64

	deadline := time.Now().Add(time.Duration(seconds * 0.35 * float64(time.Second)))
	for time.Now().Before(deadline) || len(tracedMs) < 3 {
		probes.tick()
		runtime.GC()
		pr := inst.pass(tracedCfg, tr)
		attempted += pr.ops
		if !pr.ok {
			failed += pr.ops
		}
		tracedMs = append(tracedMs, float64(pr.dur)/1e6)
		for _, h := range pr.locks {
			locks.merge(h)
		}
		s := pr.sess
		live := pr.liveInstances
		if !main.report {
			live = s.Prof.LiveInstances()
		}
		nanos, events := meterNanos(s)
		add("collections.flush_ms", float64(nanos[governor.SrcFlush.String()])/1e6)
		add("collections.flushes", float64(events[governor.SrcFlush.String()]))
		add("heap.gc_walk_ms", float64(nanos[governor.SrcGCWalk.String()])/1e6)
		add("heap.gc_walks", float64(events[governor.SrcGCWalk.String()]))
		add("profiler.fold_ms", float64(nanos[governor.SrcWindowFold.String()])/1e6)
		add("profiler.folds", float64(events[governor.SrcWindowFold.String()]))
		add("heap.cycles", float64(pr.numGC))
		add("heap.peak_live_kb", float64(pr.minHeap)/1024)
		add("profiler.contexts", float64(s.Prof.Contexts()))
		add("profiler.live_instances", float64(live))
		add("alloctx.contexts", float64(s.Contexts.Len()))
		add("alloctx.collisions", float64(s.Contexts.Collisions()))
		if sel := s.Selector; sel != nil {
			add("adaptive.decides", float64(sel.Decides()))
			add("adaptive.replacements", float64(sel.Replacements()))
			add("adaptive.verifies", float64(sel.Verifies()))
			add("adaptive.rollbacks", float64(sel.Rollbacks()))
			add("adaptive.quarantines", float64(sel.Quarantines()))
			if n := sel.Verifies() + sel.Rollbacks(); n > 0 {
				add("adaptive.verify_pass.ratio", float64(sel.Verifies())/float64(n))
			}
			conc := 0
			for _, d := range sel.Decisions() {
				if d.Impl.Concurrent() {
					conc++
				}
			}
			add("adaptive.concurrent_decisions", float64(conc))
		}
		if pr.report != nil {
			add("advisor.suggestions", float64(len(pr.report.Suggestions)))
			add("advisor.plan_entries", float64(pr.plan.Len()))
			add("advisor.planted_recall.ratio", pr.recall)
		}
		keepAlive(pr)

		runtime.GC()
		before := gr.read()
		pu := inst.pass(main, nil)
		after := gr.read()
		attempted += pu.ops
		if !pu.ok {
			failed += pu.ops
		}
		untracedMs = append(untracedMs, float64(pu.dur)/1e6)
		untracedOps += pu.ops
		gcCPU += after.gcCPU - before.gcCPU
		gcCycles += after.gcCycles - before.gcCycles
		mutexWait += after.mutexWait - before.mutexWait
		if before.sched != nil && after.sched != nil {
			if sched == nil {
				sched = make([]uint64, len(after.sched.Counts))
				schedBuckets = after.sched.Buckets
			}
			for i := range sched {
				sched[i] += after.sched.Counts[i] - before.sched.Counts[i]
			}
		}
	}

	rungs := ladder(main.mode)
	rungMs := make([][]float64, len(rungs))
	rungAllocs := make([]float64, len(rungs))
	rungOps := make([]int, len(rungs))
	rungMeter := make([]float64, len(rungs))
	rungLat := make([]*histogram, len(rungs))
	for i := range rungLat {
		rungLat[i] = newHistogram()
	}
	deadline = time.Now().Add(time.Duration(seconds * 0.65 * float64(time.Second)))
	for round := 0; time.Now().Before(deadline) || round < 3; round++ {
		probes.tick()
		for i, rg := range rungs {
			runtime.GC()
			o0, _ := gr.allocs()
			pr := inst.pass(rg.cfg, nil)
			o1, _ := gr.allocs()
			attempted += pr.ops
			if !pr.ok {
				failed += pr.ops
			}
			rungMs[i] = append(rungMs[i], float64(pr.dur)/1e6)
			rungAllocs[i] += o1 - o0
			rungOps[i] += pr.ops
			for _, h := range pr.lat {
				rungLat[i].merge(h)
			}
			nanos, _ := meterNanos(pr.sess)
			for _, n := range nanos {
				rungMeter[i] += float64(n) / 1e6
			}
		}
	}
	// A rung's cost is per op: pass time for batch workloads, request
	// latency (p50, in ms) for serve-shared.
	costName := "pass time p50"
	if inst.serving() {
		costName = "request latency p50"
	}
	cost := make([]float64, len(rungs))
	allocs := make([]float64, len(rungs))
	meter := make([]float64, len(rungs))
	for i := range rungs {
		if inst.serving() {
			cost[i] = rungLat[i].quantile(0.5) / 1e6
		} else {
			cost[i] = median(append([]float64(nil), rungMs[i]...))
		}
		allocs[i] = rungAllocs[i] / float64(rungOps[i])
		meter[i] = rungMeter[i] / float64(rungOps[i])
	}
	// The selector rungs build on the workload's own capture mode: the
	// static-trace rung or the dynamic-capture rung.
	selBase := 2
	if main.mode == alloctx.Dynamic {
		selBase = 3
	}
	vals["collections.plain_ms"] = cost[0]
	vals["collections.plain_allocs"] = allocs[0]
	vals["heap.sim_ms"] = cost[1] - cost[0]
	vals["heap.sim_allocs"] = allocs[1] - allocs[0]
	vals["profiler.trace_ms"] = cost[2] - cost[1]
	vals["profiler.trace_allocs"] = allocs[2] - allocs[1]
	vals["alloctx.dynamic_ms"] = cost[3] - cost[2]
	vals["alloctx.dynamic_allocs"] = allocs[3] - allocs[2]
	vals["adaptive.select_ms"] = cost[4] - cost[selBase]
	vals["adaptive.select_allocs"] = allocs[4] - allocs[selBase]
	vals["adaptive.verify_ms"] = cost[5] - cost[4]
	vals["adaptive.verify_allocs"] = allocs[5] - allocs[4]
	vals["ledger.auto_over_plain.ratio"] = cost[5] / cost[1]
	if gap := cost[5] - cost[1]; gap > 0 {
		vals["ledger.metered_share.frac"] = (meter[5] - meter[1]) / gap
	}
	fmt.Fprintf(log, "# ladder (cost per op: %s)\n", costName)
	for i, rg := range rungs {
		dc, da := 0.0, 0.0
		if i > 0 {
			prev := i - 1
			if i == 4 {
				prev = selBase
			}
			dc, da = cost[i]-cost[prev], allocs[i]-allocs[prev]
		}
		fmt.Fprintf(log, "#   rung %d %-9s cost_ms=%.6f delta_ms=%+.6f allocs_per_op=%.1f delta_allocs=%+.1f metered_ms=%.6f passes=%d\n",
			i+1, rg.name, cost[i], dc, allocs[i], da, meter[i], len(rungMs[i]))
	}

	durs := tr.durations()
	med := func(name string, scale float64) float64 {
		return median(durs[name]) * scale
	}
	runName := "driver.run"
	if inst.serving() {
		runName = "serve.batch"
	}
	vals["core.new_session_us"] = med("core.NewSession", 1e3)
	vals["driver.run_ms"] = med(runName, 1)
	vals["heap.final_gc_ms"] = med("Session.FinalGC", 1)
	vals["profiler.snapshot_ms"] = med("Profiler.Snapshot", 1)
	vals["profiler.persist_ms"] = med("profiler.persist", 1)
	vals["advisor.advise_ms"] = med("advisor.Advise", 1)
	vals["advisor.plan_us"] = med("advisor.NewPlan", 1e3)
	for name, xs := range per {
		vals[name] = median(xs)
	}
	vals["serve.client_lock_wait_us.p99"] = locks.quantile(0.99) / 1e3
	ops := float64(untracedOps)
	vals["go.gc_cpu_ms"] = gcCPU * 1e3 / ops
	vals["go.gc_cycles"] = gcCycles / ops
	vals["go.mutex_wait_ms"] = mutexWait * 1e3 / ops
	vals["go.sched_latency_us.p99"] = 1e6 * bucketQuantile(sched, schedBuckets, 0.99)
	vals["trace.unattributed.frac"] = tr.unattributed()
	vals["trace.overhead.frac"] = median(tracedMs)/median(untracedMs) - 1

	fmt.Fprintf(log, "# spans (median ms over %d traced passes: total / self)\n", len(tracedMs))
	selfs := tr.selfTimes()
	for _, name := range sortedKeys(durs) {
		fmt.Fprintf(log, "#   %-20s total=%.4f self=%.4f n=%d\n", name, median(durs[name]), median(selfs[name]), len(durs[name]))
	}
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			fmt.Fprintf(log, "# spans not written: %v\n", err)
		} else {
			fmt.Fprintf(log, "# spans written to %s (%d spans)\n", spansPath, len(tr.spans))
		}
	}
	return attempted, failed
}
