package experiments

import (
	"strings"
	"testing"

	"chameleon/internal/rules"
	"chameleon/internal/spec"
	"chameleon/internal/workloads"
)

// Small scales keep the full experiment suite fast in tests; the shapes
// hold from tiny scales upward.
var testScales = map[string]int{
	"tvla": 80, "bloat": 120, "fop": 40, "findbugs": 40, "pmd": 40, "soot": 60,
}

func TestFig2SeriesShape(t *testing.T) {
	pts, err := Fig2(250)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 5 {
		t.Fatalf("too few cycles: %d", len(pts))
	}
	// Collections dominate TVLA's live data and the three measures nest.
	var sawDominant bool
	for _, p := range pts {
		if p.UsedPct > p.LivePct+1e-9 || p.CorePct > p.UsedPct+1e-9 {
			t.Fatalf("series not nested at cycle %d: %+v", p.Cycle, p)
		}
		if p.LivePct > 55 {
			sawDominant = true
		}
	}
	if !sawDominant {
		t.Fatal("collections never dominated live data")
	}
	text := FormatSeries(pts, 5)
	if !strings.Contains(text, "coll%") || !strings.Contains(text, "#") {
		t.Fatalf("series formatting wrong:\n%s", text)
	}
}

func TestFig8SpikeShape(t *testing.T) {
	pts, err := Fig8(200)
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	var peakIdx int
	for i, p := range pts {
		if p.LivePct > peak {
			peak, peakIdx = p.LivePct, i
		}
	}
	if peakIdx == 0 || peakIdx >= len(pts)-1 {
		t.Fatalf("spike at boundary: idx %d of %d", peakIdx, len(pts))
	}
	if peak < pts[0].LivePct+10 {
		t.Fatalf("no spike: first=%.1f peak=%.1f", pts[0].LivePct, peak)
	}
}

func TestFig3ReportPointsAtTVLAMaps(t *testing.T) {
	res, err := Fig3(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Ranked) < 4 {
		t.Fatalf("ranked contexts = %d, want >= 4", len(res.Report.Ranked))
	}
	// The top context must be one of the seven TVLA HashMap factory
	// contexts, and its primary suggestion must be ArrayMap.
	top := res.Report.Suggestions[0]
	if !strings.Contains(top.Profile.Context.String(), "tvla.util.HashMapFactory:31") {
		t.Fatalf("top context = %s", top.Profile.Context)
	}
	if top.Primary.Rule.Act.Impl != spec.KindArrayMap {
		t.Fatalf("top suggestion = %v, want ArrayMap", top.Primary.Rule.Act.Impl)
	}
	// Get-dominated distribution (Fig. 3: contexts dominated by get).
	p := top.Profile
	if p.OpTotals[spec.GetKey] <= p.OpTotals[spec.Put] {
		t.Fatalf("tvla context not get-dominated: get=%d put=%d",
			p.OpTotals[spec.GetKey], p.OpTotals[spec.Put])
	}
	text := res.Format()
	if !strings.Contains(text, "replace with ArrayMap") {
		t.Fatalf("report text lacks the §2.1 suggestion:\n%s", text)
	}
}

func TestFig6ShapesMatchPaper(t *testing.T) {
	rows, err := Fig6(testScales)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Fig6Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
	}
	// Who wins and by roughly what factor (paper Fig. 6):
	if r := byName["tvla"]; r.ImprovementPct < 35 {
		t.Errorf("tvla improvement %.1f%%, want large (paper 53.95%%)", r.ImprovementPct)
	}
	if r := byName["bloat"]; r.ImprovementPct < 25 {
		t.Errorf("bloat improvement %.1f%%, want large (paper 56%%)", r.ImprovementPct)
	}
	if r := byName["pmd"]; r.ImprovementPct > 5 {
		t.Errorf("pmd improvement %.1f%%, want ~0 (paper 0%%)", r.ImprovementPct)
	}
	if r := byName["pmd"]; r.GCReductionPct <= 5 {
		t.Errorf("pmd GC reduction %.1f%%, want substantial (paper 16%%)", r.GCReductionPct)
	}
	// fop and findbugs: modest single/low-double-digit improvements, and
	// findbugs > fop (13.79% vs 7.69%).
	fop, fb := byName["fop"], byName["findbugs"]
	if fop.ImprovementPct <= 0 || fop.ImprovementPct > 30 {
		t.Errorf("fop improvement %.1f%%, want modest (paper 7.69%%)", fop.ImprovementPct)
	}
	if fb.ImprovementPct <= fop.ImprovementPct {
		t.Errorf("findbugs (%.1f%%) should beat fop (%.1f%%) as in the paper", fb.ImprovementPct, fop.ImprovementPct)
	}
	if r := byName["soot"]; r.ImprovementPct <= 0 || r.ImprovementPct > 30 {
		t.Errorf("soot improvement %.1f%%, want modest (paper 6%%)", r.ImprovementPct)
	}
	// Ordering: tvla and bloat are the big winners.
	if byName["tvla"].ImprovementPct <= byName["fop"].ImprovementPct {
		t.Errorf("tvla should far exceed fop")
	}
	text := FormatFig6(rows)
	if !strings.Contains(text, "tvla") || !strings.Contains(text, "paper%") {
		t.Fatalf("fig6 formatting:\n%s", text)
	}
}

// fig7Scales lengthens testScales' shortest timed runs: at testScales a
// findbugs side runs about 2 ms and a soot side 4 ms, so one preemption
// on a shared CPU could flip a row's median.
var fig7Scales = map[string]int{
	"tvla": 80, "bloat": 120, "fop": 80, "findbugs": 200, "pmd": 40, "soot": 150,
}

func TestFig7TunedNotSlower(t *testing.T) {
	// Timing is noisy on shared CPUs; assert the robust shape only:
	// averaged over the suite, the tuned variants win, and no single
	// benchmark regresses wildly. Five pairs keep each median clear of
	// two slowed runs.
	rows, err := Fig7(fig7Scales, 5)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range rows {
		sum += r.ImprovementPct
		if r.ImprovementPct < -80 {
			t.Errorf("%s: tuned variant %0.1f%% slower", r.Benchmark, -r.ImprovementPct)
		}
	}
	if sum/float64(len(rows)) < 0 {
		t.Errorf("tuned variants slower on average across the suite")
	}
	text := FormatFig7(rows)
	if !strings.Contains(text, "time(ms)") {
		t.Fatalf("fig7 formatting:\n%s", text)
	}
}

func TestSweepShape(t *testing.T) {
	rows, baseHeap, err := Sweep([]int{4, 16}, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	if baseHeap <= 0 || len(rows) != 2 {
		t.Fatalf("sweep rows = %d baseHeap = %d", len(rows), baseHeap)
	}
	low, high := rows[0], rows[1]
	// Threshold below the typical map size (7) converts every map to a
	// hash map: footprint back to (roughly) the original. Threshold above
	// keeps the compact array representation: big saving (§2.3).
	if high.HeapVsBaselinePct < 20 {
		t.Errorf("threshold 16 saving = %.1f%%, want large", high.HeapVsBaselinePct)
	}
	if low.HeapVsBaselinePct > high.HeapVsBaselinePct-10 {
		t.Errorf("threshold 4 (%.1f%%) should forfeit most of threshold 16's saving (%.1f%%)",
			low.HeapVsBaselinePct, high.HeapVsBaselinePct)
	}
	text := FormatSweep(rows, baseHeap)
	if !strings.Contains(text, "threshold") {
		t.Fatalf("sweep formatting:\n%s", text)
	}
}

func TestAutoOverheadShape(t *testing.T) {
	// Wall-clock comparisons on a shared CPU are noisy at small scales;
	// retry once with more repetitions before declaring failure. Odd pair
	// counts keep each median clear of one slowed run.
	var byName map[string]AutoRow
	for attempt := 0; attempt < 2; attempt++ {
		rows, err := AutoOverhead(map[string]int{"tvla": 120, "pmd": 60}, 3+2*attempt)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("rows = %d", len(rows))
		}
		byName = map[string]AutoRow{}
		for _, r := range rows {
			byName[r.Benchmark] = r
		}
		if byName["pmd"].SlowdownPct > 10 && byName["pmd"].SlowdownPct > byName["tvla"].SlowdownPct {
			break
		}
	}
	tvla, pmd := byName["tvla"], byName["pmd"]
	// The §5.4 shape: PMD's massive rapid allocation of short-lived
	// collections amplifies the per-allocation context-capture cost well
	// beyond TVLA's. (Our runtime.Callers capture is cheaper than the
	// paper's Throwable/JVMTI walk, and TVLA additionally *gains* from
	// the online ArrayMap replacement, so TVLA's absolute overhead can be
	// small or negative; the PMD >> TVLA asymmetry is the reproduced
	// result. See EXPERIMENTS.md.)
	if pmd.SlowdownPct <= tvla.SlowdownPct {
		t.Errorf("pmd slowdown (%.1f%%) should exceed tvla's (%.1f%%)", pmd.SlowdownPct, tvla.SlowdownPct)
	}
	if pmd.SlowdownPct <= 10 {
		t.Errorf("pmd slowdown = %.1f%%, want substantial (paper: prohibitive, 6x)", pmd.SlowdownPct)
	}
	// TVLA: the automatic space saving approaches the manual one.
	if tvla.AutoMinHeap > tvla.ManualMinHeap*3/2 {
		t.Errorf("tvla auto minheap %d too far from manual %d", tvla.AutoMinHeap, tvla.ManualMinHeap)
	}
	text := FormatAuto([]AutoRow{tvla, pmd})
	if !strings.Contains(text, "slowdown%") {
		t.Fatalf("auto formatting:\n%s", text)
	}
}

func TestRunRejectsBehaviourChange(t *testing.T) {
	if err := checkEquivalence("x", 1, 2); err == nil {
		t.Fatal("mismatched checksums must error")
	}
	if err := checkEquivalence("x", 3, 3); err != nil {
		t.Fatal(err)
	}
}

func TestRunProducesProfileUsableByRules(t *testing.T) {
	spec0, err := workloads.ByName("tvla")
	if err != nil {
		t.Fatal(err)
	}
	r := Run(spec0, workloads.Baseline, 40, defaultConfig())
	profiles := r.Session.Prof.Snapshot()
	if len(profiles) < 8 {
		t.Fatalf("profiles = %d, want the seven map contexts plus worklist", len(profiles))
	}
	// Every profile must be evaluable by the builtin rules without error.
	for _, p := range profiles {
		if _, err := rules.Eval(rules.Builtin(), p); err != nil {
			t.Fatalf("rule evaluation failed on %s: %v", p.Context, err)
		}
	}
}

// The tool-applies-its-own-suggestions loop (§3.3.2 "(or by the tool)"):
// profile -> plan -> re-run the unchanged program with the plan installed.
// The plan must recover most of the hand-tuned saving.
func TestProfileThenApplyRecoversManualSaving(t *testing.T) {
	r, err := ProfileThenApply("tvla", 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rewrites < 7 {
		t.Fatalf("plan rewrote %d contexts, want the 7 map contexts (+worklist):\n%s", r.Rewrites, r.Plan)
	}
	if r.PlannedPct() < 30 {
		t.Fatalf("plan recovered only %.1f%%:\n%s", r.PlannedPct(), FormatPlanResult(r))
	}
	// Within a few points of the manual tuning (the worklist fix may be a
	// capacity rather than a type change).
	if r.PlannedPct() < r.ManualPct()-10 {
		t.Fatalf("plan (%.1f%%) far from manual (%.1f%%)", r.PlannedPct(), r.ManualPct())
	}
	if !strings.Contains(FormatPlanResult(r), "tool-applied plan") {
		t.Fatal("formatting")
	}
}

// Calibration (§3.3.1 "constants may be tuned per specific environment"):
// the measured array-vs-hash crossover must be a small size, and the
// derived Z must fall in a sane range on any machine.
func TestCalibrateShape(t *testing.T) {
	res := Calibrate([]int{2, 8, 64, 256}, 20000, 2)
	if len(res.MapRows) != 4 || len(res.SetRows) != 4 {
		t.Fatalf("rows missing")
	}
	// At n=256 a linear scan cannot win.
	last := res.MapRows[len(res.MapRows)-1]
	if last.ArrayWins {
		t.Fatalf("array map won at n=256 (%.1f vs %.1f ns/op)?", last.ArrayNsOp, last.HashNsOp)
	}
	if res.SuggestedZ < 2 || res.SuggestedZ > 256 {
		t.Fatalf("suggested Z = %d", res.SuggestedZ)
	}
	text := FormatCalibration(res)
	if !strings.Contains(text, "suggested rule parameter Z") {
		t.Fatalf("calibration formatting:\n%s", text)
	}
}

// Plan mode must be safe on every workload: it never makes the heap worse
// and never changes behaviour (checksum equality is asserted inside
// ProfileThenApply).
func TestProfileThenApplySafeOnAllWorkloads(t *testing.T) {
	for _, spec0 := range workloads.All() {
		spec0 := spec0
		t.Run(spec0.Name, func(t *testing.T) {
			r, err := ProfileThenApply(spec0.Name, testScales[spec0.Name], nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.PlannedHeap > r.BaselineHeap+r.BaselineHeap/50 {
				t.Fatalf("plan made the heap worse: %d -> %d\n%s",
					r.BaselineHeap, r.PlannedHeap, r.Plan)
			}
		})
	}
}

// The §4.4 context-level time series: per-cycle footprints of the top
// contexts, here showing bloat's spike attributed to its node context.
func TestTopContextSeries(t *testing.T) {
	spec0, err := workloads.ByName("bloat")
	if err != nil {
		t.Fatal(err)
	}
	cfg := seriesConfig()
	cfg.KeepContexts = true
	r := Run(spec0, workloads.Baseline, 150, cfg)

	series := TopContextSeries(r.Session, 2)
	if len(series) == 0 {
		t.Fatal("no series")
	}
	top := series[0]
	if !strings.Contains(top.Label, "bloat.tree.Node") {
		t.Fatalf("top context = %s", top.Label)
	}
	if len(top.Points) < 5 {
		t.Fatalf("points = %d", len(top.Points))
	}
	// The spike: the peak is well above the first cycle's live bytes.
	if top.PeakLive < top.Points[0].Footprint.Live*2 {
		t.Fatalf("no per-context spike: first=%d peak=%d",
			top.Points[0].Footprint.Live, top.PeakLive)
	}
	text := FormatContextSeries(series, 3)
	if !strings.Contains(text, "bloat.tree.Node") || !strings.Contains(text, "#") {
		t.Fatalf("series formatting:\n%s", text)
	}

	cycle, dist := PeakTypeDistribution(r.Session)
	if cycle == 0 || dist["LinkedList"] == 0 {
		t.Fatalf("peak type distribution: cycle=%d dist=%v", cycle, dist)
	}
	// Without KeepContexts the series is empty but safe.
	r2 := Run(spec0, workloads.Baseline, 60, seriesConfig())
	if got := TopContextSeries(r2.Session, 2); len(got) != 0 {
		t.Fatalf("series without KeepContexts: %d", len(got))
	}
}
