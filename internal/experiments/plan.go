package experiments

import (
	"fmt"
	"strings"

	"chameleon/internal/advisor"
	"chameleon/internal/rules"
	"chameleon/internal/workloads"
)

// PlanResult is the profile→plan→re-run experiment: the tool applies its
// own suggestions (§3.3.2: "applied by the programmer (or by the tool)")
// by turning the report into a fixed per-context plan installed as the
// selector of a second run — no source changes, no per-allocation rule
// evaluation.
type PlanResult struct {
	Workload string
	// BaselineHeap is the original run's minimal heap.
	BaselineHeap int64
	// PlannedHeap is the re-run with the derived plan installed.
	PlannedHeap int64
	// ManualHeap is the hand-tuned variant, for reference: the plan
	// should recover (most of) the same saving.
	ManualHeap int64
	// Rewrites is the number of contexts the plan rewrote.
	Rewrites int
	// Plan is the rendered plan.
	Plan string
}

// PlannedPct reports the plan's minimal-heap improvement.
func (r PlanResult) PlannedPct() float64 {
	return pctImprovement(float64(r.BaselineHeap), float64(r.PlannedHeap))
}

// ManualPct reports the hand-tuned improvement.
func (r PlanResult) ManualPct() float64 {
	return pctImprovement(float64(r.BaselineHeap), float64(r.ManualHeap))
}

// ProfileThenApply runs a workload's baseline under profiling, derives a
// plan from the report under the bound rule set rs (nil selects the
// builtin rules), re-runs the *unchanged baseline* with the plan
// installed, and compares against the hand-tuned variant.
func ProfileThenApply(name string, scale int, rs *rules.RuleSet) (PlanResult, error) {
	spec, err := workloads.ByName(name)
	if err != nil {
		return PlanResult{}, err
	}
	if scale <= 0 {
		scale = spec.DefaultScale
	}

	base := Run(spec, workloads.Baseline, scale, defaultConfig())
	rep, err := base.Session.Report(advisor.Options{Rules: rs})
	if err != nil {
		return PlanResult{}, err
	}
	plan := advisor.NewPlan(rep)

	cfg := defaultConfig()
	cfg.Selector = plan
	planned := Run(spec, workloads.Baseline, scale, cfg)
	if err := checkEquivalence(name+"-planned", base.Checksum, planned.Checksum); err != nil {
		return PlanResult{}, err
	}
	manual := Run(spec, workloads.Tuned, scale, defaultConfig())

	return PlanResult{
		Workload:     name,
		BaselineHeap: base.MinimalHeap,
		PlannedHeap:  planned.MinimalHeap,
		ManualHeap:   manual.MinimalHeap,
		Rewrites:     plan.Len(),
		Plan:         plan.String(),
	}, nil
}

// FormatPlanResult renders the experiment.
func FormatPlanResult(r PlanResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: plan rewrote %d contexts\n", r.Workload, r.Rewrites)
	b.WriteString(r.Plan)
	fmt.Fprintf(&b, "minimal heap: baseline %d, tool-applied plan %d (%.2f%%), hand-tuned %d (%.2f%%)\n",
		r.BaselineHeap, r.PlannedHeap, r.PlannedPct(), r.ManualHeap, r.ManualPct())
	return b.String()
}
