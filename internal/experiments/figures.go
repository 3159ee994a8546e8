package experiments

import (
	"fmt"
	"strings"

	"chameleon/internal/advisor"
	"chameleon/internal/core"
	"chameleon/internal/workloads"
)

// Fig2 reproduces paper Fig. 2: the percentage of TVLA's live data consumed
// by collections (live / used / core) on every GC cycle, as produced by the
// collection-aware GC.
func Fig2(scale int) ([]core.CyclePoint, error) { return cycleSeries("tvla", scale) }

// Fig8 reproduces paper Fig. 8: the same series for bloat, whose footprint
// is dominated by a mid-run spike of (mostly empty) LinkedLists.
func Fig8(scale int) ([]core.CyclePoint, error) { return cycleSeries("bloat", scale) }

// cycleSeries runs the named workload's baseline at scale (its default
// when scale <= 0) and returns its per-GC-cycle collection series.
func cycleSeries(workload string, scale int) ([]core.CyclePoint, error) {
	spec, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	if scale <= 0 {
		scale = spec.DefaultScale
	}
	r := Run(spec, workloads.Baseline, scale, seriesConfig())
	return r.Session.PotentialSeries(), nil
}

// FormatSeries renders a cycle series as an aligned table plus a crude
// text plot of the live percentage.
func FormatSeries(points []core.CyclePoint, every int) string {
	if every <= 0 {
		every = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %10s %8s %8s %8s  %s\n", "cycle", "liveData", "coll%", "used%", "core%", "plot (coll% of live)")
	for i, p := range points {
		if i%every != 0 && i != len(points)-1 {
			continue
		}
		bar := strings.Repeat("#", int(p.LivePct/2))
		fmt.Fprintf(&b, "%6d %10d %7.1f%% %7.1f%% %7.1f%%  %s\n",
			p.Cycle, p.LiveData, p.LivePct, p.UsedPct, p.CorePct, bar)
	}
	return b.String()
}

// Fig3Result is the §2.1 / Fig. 3 output: the ranked top contexts of TVLA
// with their potential and operation distributions, plus the suggestion
// report.
type Fig3Result struct {
	Report *advisor.Report
	Top    int
}

// Fig3 reproduces paper Fig. 3 and the §2.1 suggestion report for TVLA.
func Fig3(scale int) (*Fig3Result, error) {
	spec, err := workloads.ByName("tvla")
	if err != nil {
		return nil, err
	}
	if scale <= 0 {
		scale = spec.DefaultScale
	}
	r := Run(spec, workloads.Baseline, scale, defaultConfig())
	rep, err := r.Session.Report(advisor.Options{})
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Report: rep, Top: 4}, nil
}

// Format renders the Fig. 3 view followed by the suggestion lines.
func (f *Fig3Result) Format() string {
	var b strings.Builder
	b.WriteString("Top allocation contexts (Fig. 3):\n")
	b.WriteString(f.Report.FormatTopContexts(f.Top))
	b.WriteString("\nSuggestions (§2.1 report):\n")
	b.WriteString(f.Report.Format())
	return b.String()
}

// Fig6Row is one benchmark of paper Fig. 6: minimal-heap improvement.
type Fig6Row struct {
	Benchmark      string
	BaselineBytes  int64
	TunedBytes     int64
	ImprovementPct float64
	PaperPct       float64
	BaselineGCs    int
	TunedGCs       int
	GCReductionPct float64
	AllocReduction float64 // % reduction in total allocated bytes
}

// Fig6 reproduces paper Fig. 6: for every benchmark, the improvement of
// the minimal heap size required to run it after applying the fixes
// suggested by Chameleon, as a percentage of the original minimal heap.
func Fig6(scales map[string]int) ([]Fig6Row, error) {
	var rows []Fig6Row
	for _, spec := range workloads.All() {
		scale := spec.DefaultScale
		if s, ok := scales[spec.Name]; ok && s > 0 {
			scale = s
		}
		base := Run(spec, workloads.Baseline, scale, defaultConfig())
		tuned := Run(spec, workloads.Tuned, scale, defaultConfig())
		if err := checkEquivalence(spec.Name, base.Checksum, tuned.Checksum); err != nil {
			return nil, err
		}
		rows = append(rows, Fig6Row{
			Benchmark:      spec.Name,
			BaselineBytes:  base.MinimalHeap,
			TunedBytes:     tuned.MinimalHeap,
			ImprovementPct: pctImprovement(float64(base.MinimalHeap), float64(tuned.MinimalHeap)),
			PaperPct:       spec.PaperMinHeapPct,
			BaselineGCs:    base.Stats.NumGC,
			TunedGCs:       tuned.Stats.NumGC,
			GCReductionPct: pctImprovement(float64(base.Stats.NumGC), float64(tuned.Stats.NumGC)),
			AllocReduction: pctImprovement(float64(base.Stats.TotalAllocated), float64(tuned.Stats.TotalAllocated)),
		})
	}
	return rows, nil
}

// FormatFig6 renders the Fig. 6 table.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %10s %10s %8s %8s %8s\n",
		"benchmark", "minheap", "minheap'", "improve%", "paper%", "GCs", "GCs'", "alloc-%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12d %12d %9.2f%% %9.2f%% %8d %8d %7.1f%%\n",
			r.Benchmark, r.BaselineBytes, r.TunedBytes, r.ImprovementPct, r.PaperPct,
			r.BaselineGCs, r.TunedGCs, r.AllocReduction)
	}
	return b.String()
}

// Fig7Row is one benchmark of paper Fig. 7: running-time improvement when
// running at the original minimal-heap size.
type Fig7Row struct {
	Benchmark  string
	BaselineMs float64
	TunedMs    float64
	// ImprovementPct compares the two medians; LoPct and HiPct bound the
	// improvement measured within each pair.
	ImprovementPct float64
	LoPct, HiPct   float64
	PaperPct       float64
}

// Fig7 reproduces paper Fig. 7. Each variant runs without profiling (the
// plain program), with the GC budget derived from the *baseline* minimal
// heap for both variants; the variants are timed in reps alternating
// pairs (timePairs) and each one's median is reported.
func Fig7(scales map[string]int, reps int) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, spec := range workloads.All() {
		scale := spec.DefaultScale
		if s, ok := scales[spec.Name]; ok && s > 0 {
			scale = s
		}
		// Determine the original minimal heap first (§5.2 step 6).
		base := Run(spec, workloads.Baseline, scale, defaultConfig())
		budget := base.MinimalHeap

		variant := func(v workloads.Variant) func() RunResult {
			return func() RunResult { return Run(spec, v, scale, timedConfig(budget)) }
		}
		t := timePairs(reps, variant(workloads.Baseline), variant(workloads.Tuned))
		if err := checkEquivalence(spec.Name, t.LastA.Checksum, t.LastB.Checksum); err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{
			Benchmark:      spec.Name,
			BaselineMs:     ms(t.A),
			TunedMs:        ms(t.B),
			ImprovementPct: pctImprovement(float64(t.A), float64(t.B)),
			LoPct:          t.Lo,
			HiPct:          t.Hi,
			PaperPct:       spec.PaperRunTimePct,
		})
	}
	return rows, nil
}

// FormatFig7 renders the Fig. 7 table.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %10s %18s %10s\n", "benchmark", "time(ms)", "time'(ms)", "improve%", "pair range%", "paper%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12.2f %12.2f %9.2f%% %18s %9.2f%%\n",
			r.Benchmark, r.BaselineMs, r.TunedMs, r.ImprovementPct, pctRange(r.LoPct, r.HiPct), r.PaperPct)
	}
	return b.String()
}
