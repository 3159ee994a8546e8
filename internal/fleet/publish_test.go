package fleet

import (
	"strings"
	"testing"
	"time"

	"chameleon/internal/adaptive"
	"chameleon/internal/advisor"
	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/profiler"
	"chameleon/internal/spec"
	"chameleon/internal/workloads"
)

// frontendRespCtx is the frontend workload's response-assembly allocation
// site; its lists hold 4-8 elements per request.
const frontendRespCtx = "frontend.Render.respond:96;frontend.Tier.handle:120"

// singletonFleetResult fabricates a fleet that swears the respond context
// is a singleton (max size 1, add-only, enough space potential to clear
// the advisor's negligible-savings gate) — plausible for a fleet segment
// whose responses carry one element, and guaranteed wrong for the
// workload this process actually runs.
func singletonFleetResult(t *testing.T) *Result {
	t.Helper()
	tab := alloctx.NewTable()
	a := Source{Name: "shard-a.json", Profiles: []*profiler.Profile{skewProfile(tab, frontendRespCtx, 640, 0, 1)}}
	bp := skewProfile(tab, frontendRespCtx, 640, 0, 1)
	bp.Allocs = 65 // a shard, not a duplicate delivery
	b := Source{Name: "shard-b.json", Profiles: []*profiler.Profile{bp}}
	return Merge([]Source{a, b}, Options{})
}

// TestPublishPlanInstallsFleetDecision: the happy half — a fleet plan
// lands in a live selector as an Active, verification-scheduled decision,
// and subsequent allocations from that context receive it.
func TestPublishPlanInstallsFleetDecision(t *testing.T) {
	merged := singletonFleetResult(t)
	rep, err := merged.Advise(advisor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := advisor.NewPlan(rep)
	if plan.Len() == 0 {
		t.Fatalf("fleet advice compiled no plan:\n%s", rep.Format())
	}
	entry, ok := plan.Entry(alloctx.StaticKey(frontendRespCtx))
	if !ok {
		t.Fatalf("plan has no entry for %s", frontendRespCtx)
	}
	if entry.Decision.Impl != spec.KindSingletonList {
		t.Fatalf("fleet decision is %s, want SingletonList", entry.Decision.Impl)
	}
	if entry.Rule == nil {
		t.Fatal("plan entry lost its rule; post-publish verification would be blind")
	}

	prof := profiler.New()
	sel := adaptive.New(prof, adaptive.Options{MinEvidence: 8})
	if n := PublishPlan(sel, plan); n != plan.Len() {
		t.Fatalf("published %d of %d decisions", n, plan.Len())
	}
	if sel.Published() != int64(plan.Len()) {
		t.Fatalf("Published() = %d, want %d", sel.Published(), plan.Len())
	}
	dec, ok := sel.Decisions()[entry.ContextKey]
	if !ok || dec.Impl != spec.KindSingletonList {
		t.Fatalf("published decision not active: %+v (ok=%v)", dec, ok)
	}
	// Re-publishing is idempotent in effect: still one active decision.
	PublishPlan(sel, plan)
	if len(sel.Decisions()) != plan.Len() {
		t.Fatalf("re-publish duplicated decisions: %d", len(sel.Decisions()))
	}
}

// TestPublishedDecisionRollsBackOnPremiseViolation is the end-to-end
// acceptance scenario: a hot-published fleet decision whose premise the
// local workload violates must travel the existing guard path — evidence
// window, premise re-check, rollback, quarantine — while the workload's
// output stays correct throughout.
func TestPublishedDecisionRollsBackOnPremiseViolation(t *testing.T) {
	merged := singletonFleetResult(t)
	rep, err := merged.Advise(advisor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := advisor.NewPlan(rep)
	if plan.Len() == 0 {
		t.Fatalf("no plan:\n%s", rep.Format())
	}

	prof := profiler.New()
	sel := adaptive.New(prof, adaptive.Options{
		MinEvidence:       8,
		VerifyEvery:       16,
		MinWindowEvidence: 4,
	})
	rt := collections.NewRuntime(collections.Config{
		Profiler: prof,
		Contexts: alloctx.NewTable(),
		Mode:     alloctx.Static,
		Selector: sel,
	})
	if n := PublishPlan(sel, plan); n == 0 {
		t.Fatal("nothing published")
	}

	// The frontend's responses hold 4-8 elements: the singleton premise is
	// violated by every single request this process serves.
	res := workloads.FrontendRun(rt, workloads.Baseline, 300, 4, 50*time.Microsecond)
	want := workloads.RunFrontend(collections.Plain(), workloads.Baseline, 300)
	if res.Checksum != want {
		t.Fatalf("hot publish + rollback changed the workload result: %#x, want %#x", res.Checksum, want)
	}

	if sel.Rollbacks() == 0 {
		t.Fatalf("published singleton decision never rolled back (verifies=%d, statuses=%+v)",
			sel.Verifies(), sel.Statuses())
	}
	key := alloctx.StaticKey(frontendRespCtx)
	var st *adaptive.ContextStatus
	for _, s := range sel.Statuses() {
		if s.Context == key {
			cp := s
			st = &cp
		}
	}
	if st == nil {
		t.Fatal("respond context has no guarded status")
	}
	if st.Status != adaptive.StatusQuarantined {
		t.Fatalf("respond context status = %v, want quarantined; %+v", st.Status, *st)
	}
	if st.Rollbacks == 0 || st.Applied {
		t.Fatalf("rollback not recorded or decision still applied: %+v", *st)
	}
	if !strings.Contains(st.LastError, "singleton") && st.LastError == "" {
		t.Fatalf("rollback reason missing: %+v", *st)
	}
	// Satellite: the rollback window's contention evidence is persisted on
	// the quarantine record for the next evaluation to seed from.
	if st.SeedOwnerSamples == 0 {
		t.Fatalf("no contention evidence persisted on quarantine: %+v", *st)
	}
}

// TestPublishRefusedWhileQuarantined: a fleet re-advise must not stomp a
// context the local guard just exiled — publish respects unexpired
// quarantine backoff.
func TestPublishRefusedWhileQuarantined(t *testing.T) {
	merged := singletonFleetResult(t)
	rep, err := merged.Advise(advisor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := advisor.NewPlan(rep)

	prof := profiler.New()
	sel := adaptive.New(prof, adaptive.Options{
		MinEvidence:       8,
		VerifyEvery:       16,
		MinWindowEvidence: 4,
		QuarantineBackoff: 1 << 40, // park the context for the whole test
		BackoffMax:        1 << 40,
	})
	rt := collections.NewRuntime(collections.Config{
		Profiler: prof,
		Contexts: alloctx.NewTable(),
		Mode:     alloctx.Static,
		Selector: sel,
	})
	PublishPlan(sel, plan)
	workloads.FrontendRun(rt, workloads.Baseline, 300, 4, 50*time.Microsecond)
	if sel.Quarantines() == 0 {
		t.Skip("workload run produced no quarantine this time; covered by the rollback test")
	}
	if n := PublishPlan(sel, plan); n != 0 {
		t.Fatalf("re-publish into unexpired quarantine accepted %d decision(s)", n)
	}
}
