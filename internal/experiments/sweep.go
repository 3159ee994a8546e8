package experiments

import (
	"fmt"
	"strings"
	"time"

	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/core"
	"chameleon/internal/workloads"
)

// autoConfig is the §5.4 fully-automatic configuration: dynamic (stack
// walking) context capture, full profiling, and the online selector — the
// expensive path whose overhead the experiment measures.
func autoConfig(heapBudget int64) core.Config {
	cfg := timedConfig(heapBudget)
	cfg.NoProfiling = false
	cfg.Mode = alloctx.Dynamic
	cfg.Online = true
	return cfg
}

// SweepRow is one conversion threshold of the §2.3 hybrid experiment on
// TVLA: the SizeAdaptingMap switches from an array to a hash map when its
// size crosses Threshold.
type SweepRow struct {
	Threshold   int
	MinimalHeap int64
	// Duration is the median run time across the timing pairs.
	Duration time.Duration
	// HeapVsBaselinePct is the minimal-heap change relative to the
	// unmodified (HashMap) baseline; positive = smaller heap.
	HeapVsBaselinePct float64
	// TimeVsBaselinePct is the run-time change of the median relative to
	// the baseline's; negative = slower (the paper saw ~8% degradation at
	// the good threshold). TimeLoPct and TimeHiPct bound the change
	// measured within each pair.
	TimeVsBaselinePct    float64
	TimeLoPct, TimeHiPct float64
}

// Sweep reproduces the §2.3 hybrid-collection experiment: TVLA run with
// SizeAdaptingMaps at each conversion threshold, compared against the
// plain-HashMap baseline. The paper found conversion at 16 gives a low
// footprint with ~8% time cost, larger thresholds add no footprint win,
// and threshold 13 (below the typical map size) gives the original
// footprint back. Each threshold is timed against the baseline in reps
// alternating pairs (timePairs).
func Sweep(thresholds []int, scale, reps int) ([]SweepRow, int64, error) {
	spec, err := workloads.ByName("tvla")
	if err != nil {
		return nil, 0, err
	}
	if scale <= 0 {
		scale = spec.DefaultScale
	}
	if len(thresholds) == 0 {
		thresholds = []int{2, 4, 6, 8, 13, 16, 24, 32}
	}

	base := Run(spec, workloads.Baseline, scale, defaultConfig())
	budget := base.MinimalHeap
	timed := func(w workloads.Spec) func() RunResult {
		return func() RunResult { return Run(w, workloads.Baseline, scale, timedConfig(budget)) }
	}

	var rows []SweepRow
	for _, thr := range thresholds {
		thr := thr
		adaptive := func(rt *collections.Runtime, _ workloads.Variant, sc int) uint64 {
			return workloads.RunTVLAAdaptive(rt, thr, sc)
		}
		aspec := workloads.Spec{Name: fmt.Sprintf("tvla-adapt-%d", thr), Run: adaptive}

		space := Run(aspec, workloads.Baseline, scale, defaultConfig())
		if err := checkEquivalence(aspec.Name, base.Checksum, space.Checksum); err != nil {
			return nil, 0, err
		}
		t := timePairs(reps, timed(spec), timed(aspec))
		rows = append(rows, SweepRow{
			Threshold:         thr,
			MinimalHeap:       space.MinimalHeap,
			Duration:          t.B,
			HeapVsBaselinePct: pctImprovement(float64(base.MinimalHeap), float64(space.MinimalHeap)),
			TimeVsBaselinePct: pctImprovement(float64(t.A), float64(t.B)),
			TimeLoPct:         t.Lo,
			TimeHiPct:         t.Hi,
		})
	}
	return rows, base.MinimalHeap, nil
}

// FormatSweep renders the sweep table.
func FormatSweep(rows []SweepRow, baselineHeap int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "baseline (HashMap) minimal heap: %d bytes\n", baselineHeap)
	fmt.Fprintf(&b, "%10s %12s %12s %12s %12s %18s\n", "threshold", "minheap", "heap-save%", "time(ms)", "time-delta%", "pair range%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %12d %11.2f%% %12.2f %+11.2f%% %18s\n",
			r.Threshold, r.MinimalHeap, r.HeapVsBaselinePct,
			ms(r.Duration), r.TimeVsBaselinePct, pctRange(r.TimeLoPct, r.TimeHiPct))
	}
	return b.String()
}

// AutoRow is one benchmark of the §5.4 fully-automatic-mode experiment.
type AutoRow struct {
	Benchmark string
	// BaselineMs is the plain program (static choices, no profiling).
	BaselineMs float64
	// AutoMs is the fully-automatic mode: dynamic context capture,
	// profiling, and online replacement. Both are medians across the
	// timing pairs.
	AutoMs float64
	// SlowdownPct is the overhead of the automatic mode, from the two
	// medians; SlowLoPct and SlowHiPct bound it within each pair.
	SlowdownPct          float64
	SlowLoPct, SlowHiPct float64
	// AutoMinHeap and ManualMinHeap compare the space achieved
	// automatically against applying the suggestions manually.
	AutoMinHeap   int64
	ManualMinHeap int64
	// PaperSlowdownPct is the slowdown the paper reports (35% for TVLA,
	// ~500% for PMD).
	PaperSlowdownPct float64
}

// AutoOverhead reproduces the §5.4 experiment on TVLA and PMD: the paper
// found automatic replacement matched the manual space saving on TVLA with
// a 35% slowdown, while PMD's massive rapid allocation of short-lived
// collections amplified the cost of obtaining allocation contexts into a
// prohibitive (6x) slowdown. Base and auto are timed in reps alternating
// pairs (timePairs).
func AutoOverhead(scale map[string]int, reps int) ([]AutoRow, error) {
	paperSlow := map[string]float64{"tvla": 35, "pmd": 500}
	var rows []AutoRow
	for _, name := range []string{"tvla", "pmd"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		sc := spec.DefaultScale
		if s, ok := scale[name]; ok && s > 0 {
			sc = s
		}
		base := Run(spec, workloads.Baseline, sc, defaultConfig())
		budget := base.MinimalHeap
		run := func(cfg core.Config) func() RunResult {
			return func() RunResult { return Run(spec, workloads.Baseline, sc, cfg) }
		}
		t := timePairs(reps, run(timedConfig(budget)), run(autoConfig(budget)))
		if err := checkEquivalence(name+"-auto", t.LastA.Checksum, t.LastB.Checksum); err != nil {
			return nil, err
		}
		manual := Run(spec, workloads.Tuned, sc, defaultConfig())

		rows = append(rows, AutoRow{
			Benchmark:        name,
			BaselineMs:       ms(t.A),
			AutoMs:           ms(t.B),
			SlowdownPct:      -pctImprovement(float64(t.A), float64(t.B)),
			SlowLoPct:        -t.Hi,
			SlowHiPct:        -t.Lo,
			AutoMinHeap:      t.LastB.MinimalHeap,
			ManualMinHeap:    manual.MinimalHeap,
			PaperSlowdownPct: paperSlow[name],
		})
	}
	return rows, nil
}

// FormatAuto renders the §5.4 table.
func FormatAuto(rows []AutoRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %18s %14s %14s %12s\n",
		"benchmark", "base(ms)", "auto(ms)", "slowdown%", "pair range%", "auto-minheap", "manual-minheap", "paper-slow%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12.2f %12.2f %11.2f%% %18s %14d %14d %11.2f%%\n",
			r.Benchmark, r.BaselineMs, r.AutoMs, r.SlowdownPct, pctRange(r.SlowLoPct, r.SlowHiPct),
			r.AutoMinHeap, r.ManualMinHeap, r.PaperSlowdownPct)
	}
	return b.String()
}
