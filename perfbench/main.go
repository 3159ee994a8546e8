// Command perfbench is the repository's benchmark. It generates one
// workload's collection traffic from a seed, runs it through Chameleon's
// public entry points (core.NewSession, the collections constructors,
// Profiler.Snapshot, advisor.Advise and NewPlan, the adaptive.Selector
// getters), checks every result against a reference computed on plain Go
// maps and slices, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). The last line of standard
// output is one JSON object; the lines before it, each starting with "#",
// record the host, the spread of every timing, and the traced run's ladder
// and spans.
//
// Usage:
//
//	perfbench --workload offline-report|online-auto|serve-shared --seed N --seconds S --trace 0|1 [--spans DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"chameleon/internal/alloctx"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const (
	// setupReps is how many times a run sets up before its first timed
	// pass; the untraced run sets up again every setupEvery between passes,
	// and setup_s is the median of all of them, so that it reads the host
	// over the whole run rather than over its first second.
	setupReps  = 5
	setupEvery = 2500 * time.Millisecond
	// warmups is the number of untimed passes each set-up ends with.
	warmups = 2
	// retainEvery spaces the retained-heap readings (each costs two forced
	// collections) over the timed passes.
	retainEvery = 4
	// baselineEvery spaces the no-selection reference passes of the
	// two-goroutine workloads over the timed passes.
	baselineEvery = 3
	// passBlock is how many consecutive passes (1.5-2.5 s) one pass_ms.p90
	// reading spans; the reported p90 is the median over a run's blocks
	// (ten or more), so a slow stretch of the host moves only the blocks
	// it covers.
	passBlock = 25
)

// result is the final JSON line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (offline-report, online-auto, serve-shared)")
	seed := fs.Uint64("seed", 1, "seed the workload's traffic is generated from")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spans := fs.String("spans", "", "directory the traced run writes its spans to (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		fs.Usage()
		return 2
	}

	out := stdout // the run record and the result share standard output
	h := readHost()
	hostJSON, _ := json.Marshal(struct { // strings and numbers only: cannot fail
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Seconds  float64 `json:"seconds"`
		Trace    int     `json:"trace"`
		host
	}{w.name, *seed, *seconds, *trace, h})
	fmt.Fprintf(out, "# host %s\n", hostJSON)
	fmt.Fprintf(out, "# workload %s: %s\n", w.name, w.why)

	// Set-up: generate the input and its reference, build sessions and
	// warm up. The first set-up's input is the one measured; later ones
	// are timed and dropped. The slices have room for a minute of
	// set-ups, so they do not grow while retained_mb is measured.
	setupTimes, setupClean := make([]float64, 0, 64), make([]bool, 0, 64)
	var inst instance
	warmOK := true
	setup := func() {
		runtime.GC()
		s0 := hostSteal()
		t0 := time.Now()
		in := w.prepare(*seed)
		for j := 0; j < warmups; j++ {
			pr := in.pass(in.main(), nil)
			warmOK = warmOK && pr.ok
			keepAlive(pr)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		setupClean = append(setupClean, hostSteal() == s0)
		if inst == nil {
			inst = in
		}
	}
	for range setupReps {
		setup()
	}
	fmt.Fprintf(out, "# input %s\n", inst.size())
	cpuMs, memMs := probeMedian(cpuProbe), probeMedian(memProbe)
	fmt.Fprintf(out, "# probes at set-up host.cpu_probe_ms=%.4f host.mem_probe_ms=%.4f\n", cpuMs, memMs)

	vals := map[string]float64{}
	var attempted, failed int
	checksOK := true
	probes := newHostProbes()
	steal0, wall0 := hostSteal(), time.Now()
	if *trace == 0 {
		attempted, failed, checksOK = measure(inst, *seconds, vals, out, probes, setup)
		setupS, n := stealFree(setupTimes, setupClean, setupReps)
		fmt.Fprintf(out, "# steal-free set-ups: %d of %d (setup_s uses them when at least %d)\n", n, len(setupTimes), setupReps)
		vals["setup_s"] = median(setupS)
	} else {
		path := ""
		if *spans != "" {
			path = filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		}
		attempted, failed = runTraced(inst, *seconds, vals, out, path, probes)
		vals["host.cpu_probe_ms"] = median(append([]float64{cpuMs}, probes.cpu...))
		vals["host.mem_probe_ms"] = median(append([]float64{memMs}, probes.mem...))
	}

	if steal0 >= 0 {
		wall := time.Since(wall0).Seconds()
		steal := hostSteal() - steal0
		fmt.Fprintf(out, "# host steal %.2f s over %.1f s wall on %d CPUs (%.1f%%)\n", steal, wall, h.Nproc, 100*steal/(wall*float64(h.Nproc)))
	}
	probes.print(out)
	printSpread(out, "setup_s", summarize(setupTimes))
	checksOK = checksOK && warmOK
	list := endToEnd
	if *trace == 1 {
		list = perLayer
	}
	res := result{
		Correct:   failed == 0 && checksOK,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]value{},
	}
	for _, m := range list {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio over an empty denominator (nothing to compare)
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "# metric %-32s %14.6f %-6s %s\n", m.name, v, m.unit, m.target)
	}
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(out, "# failed.frac=%g (%d of %d ops; set-up and saving checks ok=%v)\n", frac, failed, attempted, checksOK)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: results disagree with the reference")
		return 1
	}
	return 0
}

func printSpread(out io.Writer, name string, s spread) {
	fmt.Fprintf(out, "# timing %-24s p25=%.6g p50=%.6g p75=%.6g p90=%.6g p99=%.6g n=%d\n",
		name, s.P25, s.P50, s.P75, s.P90, s.P99, s.N)
}

// measure is the untraced run: closed-loop passes of the workload's own
// configuration for the given time. It fills vals with the end-to-end
// metrics other than setup_s and reports whether the untimed saving runs
// also matched the reference.
//
// Every timing is a median over the run's steal-free passes (see
// stealFree), so that a slow stretch of the host covering less than half
// of it does not move the result: pass_ms.p90 is the median of per-block
// p90s (passBlock passes a block), the latency quantiles are medians of
// per-pass quantiles, and throughput_rps is a pass's tasks or requests
// over pass_ms.p50.
func measure(inst instance, seconds float64, vals map[string]float64, out io.Writer, probes *hostProbes, setup func()) (attempted, failed int, ok bool) {
	gr := newGoReader()
	main := inst.main()
	lat, passLat := newHistogram(), newHistogram() // pooled over the run; one pass
	// Everything the loop keeps is allocated before the live-heap baseline,
	// so retained_mb reads the sessions' memory only.
	const maxPasses = 1 << 14
	passMs, minHeaps, numGCs := make([]float64, 0, maxPasses), make([]float64, 0, maxPasses), make([]float64, 0, maxPasses)
	latP50, latP99 := make([]float64, 0, maxPasses), make([]float64, 0, maxPasses)
	clean := make([]bool, 0, maxPasses)
	retained := make([]float64, 0, maxPasses/retainEvery+1)
	baseHeaps, baseGCs := make([]float64, 0, maxPasses/baselineEvery+1), make([]float64, 0, maxPasses/baselineEvery+1)
	baseLive := liveHeap()
	fmt.Fprintf(out, "# go heap live before the timed loop: %.2f MB\n", baseLive/1e6)
	var objects, bytes, tasks float64
	var last passResult
	ok = true
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	nextSetup := time.Now().Add(setupEvery)
	for i := 0; (time.Now().Before(deadline) || i < 3) && i < maxPasses; i++ {
		probes.tick()
		if time.Now().After(nextSetup) {
			setup()
			nextSetup = time.Now().Add(setupEvery)
		}
		runtime.GC()
		s0 := hostSteal()
		o0, b0 := gr.allocs()
		pr := inst.pass(main, nil)
		o1, b1 := gr.allocs()
		clean = append(clean, hostSteal() == s0)
		objects += o1 - o0
		bytes += b1 - b0
		attempted += pr.ops
		if !pr.ok {
			failed += pr.ops
		}
		passMs = append(passMs, float64(pr.dur)/1e6)
		passLat.reset()
		for _, h := range pr.lat {
			passLat.merge(h)
		}
		lat.merge(passLat)
		tasks += float64(passLat.n)
		latP50 = append(latP50, passLat.quantile(0.5)/1e3)
		latP99 = append(latP99, passLat.quantile(0.99)/1e3)
		minHeaps = append(minHeaps, float64(pr.minHeap))
		numGCs = append(numGCs, float64(pr.numGC))
		if i%retainEvery == 0 {
			retained = append(retained, (liveHeap()-baseLive)/1e6)
		}
		keepAlive(pr)
		last = pr
		// Two-goroutine workloads select (and peak) differently from pass
		// to pass, so their no-selection reference is sampled all along
		// the run, untimed.
		if !main.report && i%baselineEvery == 0 {
			runtime.GC()
			base := inst.pass(noSelection, nil)
			ok = ok && base.ok
			baseHeaps = append(baseHeaps, float64(base.minHeap))
			baseGCs = append(baseGCs, float64(base.numGC))
		}
	}

	// Savings against the same input with no selection. offline-report is
	// single-goroutine and deterministic: one run of each side suffices.
	var baseHeap, baseGC, selHeap, selGC float64
	if main.report {
		base := inst.pass(noSelection, nil)
		planned := inst.pass(config{heap: true, mode: alloctx.Static, plan: last.plan}, nil)
		ok = ok && base.ok && planned.ok
		baseHeap, baseGC = float64(base.minHeap), float64(base.numGC)
		selHeap, selGC = float64(planned.minHeap), float64(planned.numGC)
	} else {
		// Which contexts are decided before their instances die depends on
		// how the two goroutines interleave, so a pass's minimal heap has a
		// long tail either way: compare medians. GC cycle counts hold
		// still: compare means.
		baseHeap, baseGC = median(baseHeaps), mean(baseGCs)
		selHeap, selGC = median(minHeaps), mean(numGCs)
	}
	fmt.Fprintf(out, "# savings minheap %.0f -> %.0f B, gc cycles %.1f -> %.1f (no selection -> selection, %d reference passes)\n",
		baseHeap, selHeap, baseGC, selGC, max(len(baseHeaps), 1))

	ops := float64(attempted)
	const minClean = 2 * passBlock
	timedMs, n := stealFree(passMs, clean, minClean)
	fmt.Fprintf(out, "# steal-free passes: %d of %d (timings use them when at least %d)\n", n, len(passMs), minClean)
	latP50, _ = stealFree(latP50, clean, minClean)
	latP99, _ = stealFree(latP99, clean, minClean)
	blockP90 := blockQuantiles(timedMs, 0.9, passBlock)
	vals["pass_ms.p50"] = median(timedMs)
	vals["pass_ms.p90"] = median(blockP90)
	vals["throughput_rps"] = tasks / float64(len(passMs)) / (vals["pass_ms.p50"] / 1e3)
	vals["latency_us.p50"] = median(latP50)
	vals["latency_us.p99"] = median(latP99)
	vals["allocs.per_op"] = objects / ops
	vals["alloc_bytes.per_op"] = bytes / ops
	vals["retained_mb"] = median(retained)
	vals["minheap_pct"] = 100 * selHeap / baseHeap
	vals["gc_saving_pct"] = 100 * (baseGC - selGC) / baseGC

	printSpread(out, "pass_ms all passes", summarize(passMs))
	printSpread(out, "pass_ms", summarize(timedMs))
	printSpread(out, "pass_ms.p90 per block", summarize(blockP90))
	printSpread(out, "latency_us pooled", lat.summarize(1e-3))
	printSpread(out, "latency_us.p50 per pass", summarize(latP50))
	printSpread(out, "latency_us.p99 per pass", summarize(latP99))
	printSpread(out, "retained_mb", summarize(retained))
	return attempted, failed, ok
}
