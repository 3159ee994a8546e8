package experiments

import (
	"strings"
	"testing"

	"chameleon/internal/advisor"
	"chameleon/internal/core"
	"chameleon/internal/heap"
	"chameleon/internal/rules"
	"chameleon/internal/spec"
	"chameleon/internal/workloads"
)

// reportFor profiles one workload baseline and returns its report.
func reportFor(t *testing.T, name string, scale int, opts advisor.Options) *advisor.Report {
	t.Helper()
	spec0, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r := Run(spec0, workloads.Baseline, scale, defaultConfig())
	rep, err := r.Session.Report(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func hasFix(rep *advisor.Report, ctxSubstr string, act rules.ActionKind, impl spec.Kind) bool {
	for _, s := range rep.Suggestions {
		if !strings.Contains(s.Profile.Context.String(), ctxSubstr) {
			continue
		}
		for _, m := range append([]rules.Match{s.Primary}, s.Others...) {
			if m.Rule.Act.Kind == act && (impl == spec.KindNone || m.Rule.Act.Impl == impl) {
				return true
			}
		}
	}
	return false
}

// Every workload's report must contain the fix the paper describes for it
// — the end-to-end validation that profiling + rules reproduce §5.3's
// per-benchmark findings.

func TestReportSignatureTVLA(t *testing.T) {
	rep := reportFor(t, "tvla", 80, advisor.Options{})
	if !hasFix(rep, "tvla.util.HashMapFactory", rules.ActReplace, spec.KindArrayMap) {
		t.Fatalf("no HashMap->ArrayMap fix:\n%s", rep.Format())
	}
}

func TestReportSignatureBloat(t *testing.T) {
	rep := reportFor(t, "bloat", 150, advisor.Options{})
	if !hasFix(rep, "bloat.tree.Node", rules.ActReplace, spec.KindLazyArrayList) {
		t.Fatalf("no LinkedList->LazyArrayList fix for the empty lists:\n%s", rep.Format())
	}
}

func TestReportSignatureFOP(t *testing.T) {
	rep := reportFor(t, "fop", 40, advisor.Options{MinPotential: -1})
	if !hasFix(rep, "fop.fo.PropertyList", rules.ActReplace, spec.KindArrayMap) {
		t.Fatalf("no small-map fix for property lists:\n%s", rep.Format())
	}
	// The never-used InlineStackingLayoutManager collections -> avoid.
	if !hasFix(rep, "InlineStackingLayoutManager", rules.ActAvoid, spec.KindNone) &&
		!hasFix(rep, "InlineStackingLayoutManager", rules.ActReplace, spec.KindLazyArrayList) {
		t.Fatalf("unused-collection context not flagged:\n%s", rep.Format())
	}
}

func TestReportSignatureFindBugs(t *testing.T) {
	rep := reportFor(t, "findbugs", 40, advisor.Options{MinPotential: -1})
	if !hasFix(rep, "findbugs.ba.FactMap", rules.ActReplace, spec.KindArrayMap) {
		t.Fatalf("no small-map fix:\n%s", rep.Format())
	}
	if !hasFix(rep, "findbugs.BugAccumulator", rules.ActReplace, spec.KindArraySet) {
		t.Fatalf("no small-set fix:\n%s", rep.Format())
	}
}

func TestReportSignaturePMD(t *testing.T) {
	rep := reportFor(t, "pmd", 20, advisor.Options{MinPotential: -1})
	// The oversized, mostly-empty violation lists: the report must flag
	// the context (lazy allocation for the empty majority).
	if !hasFix(rep, "pmd.RuleContext", rules.ActReplace, spec.KindLazyArrayList) &&
		!hasFix(rep, "pmd.RuleContext", rules.ActSetCapacity, spec.KindNone) {
		t.Fatalf("violation-list context not flagged:\n%s", rep.Format())
	}
}

func TestReportSignatureSoot(t *testing.T) {
	rep := reportFor(t, "soot", 40, advisor.Options{MinPotential: -1})
	// Singleton-by-construction lists -> SingletonList (the JIfStmt case).
	if !hasFix(rep, "soot.jimple.internal.JIfStmt", rules.ActReplace, spec.KindSingletonList) {
		t.Fatalf("no SingletonList fix:\n%s", rep.Format())
	}
	// useBoxes lists growing past their default capacity -> setCapacity,
	// and the temporaries are flagged as copy-only.
	if !hasFix(rep, "soot.AbstractUnit.getUseBoxes", rules.ActSetCapacity, spec.KindNone) &&
		!hasFix(rep, "soot.AbstractUnit.getUseBoxes", rules.ActEliminateCopies, spec.KindNone) {
		t.Fatalf("useBoxes context not flagged:\n%s", rep.Format())
	}
}

// Orthogonality of the size model: under the 64-bit layout all absolute
// numbers grow but the relative improvement and the winner ordering hold.
func TestFig6HoldsUnderModel64(t *testing.T) {
	spec0, err := workloads.ByName("tvla")
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.Model = heap.Model64
	base := Run(spec0, workloads.Baseline, 80, cfg)
	tuned := Run(spec0, workloads.Tuned, 80, cfg)
	if base.Checksum != tuned.Checksum {
		t.Fatal("behaviour changed")
	}
	imp64 := pctImprovement(float64(base.MinimalHeap), float64(tuned.MinimalHeap))

	base32 := Run(spec0, workloads.Baseline, 80, defaultConfig())
	tuned32 := Run(spec0, workloads.Tuned, 80, defaultConfig())
	imp32 := pctImprovement(float64(base32.MinimalHeap), float64(tuned32.MinimalHeap))

	if base.MinimalHeap <= base32.MinimalHeap {
		t.Fatalf("64-bit heap (%d) should exceed 32-bit (%d)", base.MinimalHeap, base32.MinimalHeap)
	}
	if imp64 < imp32-15 || imp64 > imp32+15 {
		t.Fatalf("improvement not model-robust: 64-bit %.1f%% vs 32-bit %.1f%%", imp64, imp32)
	}
}

var _ = core.Config{} // keep the core import for the helpers above

// The negative result (§5.1): a workload without collection pathologies
// must yield little potential and no dramatic suggestions.
func TestNeutralWorkloadReportsLittlePotential(t *testing.T) {
	spec0, err := workloads.ByName("neutral")
	if err != nil {
		t.Fatal(err)
	}
	r := Run(spec0, workloads.Baseline, 100, seriesConfig())
	// Collections are a small share of live data...
	var worst float64
	for _, p := range r.Session.PotentialSeries() {
		if p.LivePct > worst {
			worst = p.LivePct
		}
	}
	if worst > 35 {
		t.Fatalf("neutral workload's collections reached %.1f%% of live data", worst)
	}
	// ...and the default report makes no replacement suggestions.
	rep, err := r.Session.Report(advisor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Suggestions {
		if s.Primary.Rule.Act.Kind == rules.ActReplace {
			t.Fatalf("neutral workload got a replacement suggestion:\n%s", rep.Format())
		}
	}
}

// The OOM-based minimal-heap search must agree with the peak-live
// measurement the Fig. 6 harness uses — the two definitions of "minimal
// heap required to run" coincide.
func TestMinHeapSearchMatchesPeakLive(t *testing.T) {
	res, err := SearchMinHeap("tvla", workloads.Baseline, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinimalLimit != res.PeakLive {
		t.Fatalf("OOM search found %d, peak live is %d (%d probes)",
			res.MinimalLimit, res.PeakLive, res.Probes)
	}
	if res.Probes < 5 {
		t.Fatalf("suspiciously few probes: %d", res.Probes)
	}
	if !strings.Contains(res.String(), "minimal heap by OOM search") {
		t.Fatal("formatting")
	}
}
