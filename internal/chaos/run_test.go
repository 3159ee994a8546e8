package chaos

import (
	"reflect"
	"testing"

	"chameleon/internal/faults"
)

// TestCleanTreePassesAllAuditors: seeded schedules over every scenario
// must pass every invariant auditor on an unbroken tree — the soak CI
// runs; a failure here is either a real robustness bug or an unsound
// auditor, and both block.
func TestCleanTreePassesAllAuditors(t *testing.T) {
	h := NewHarness()
	for _, sc := range Scenarios() {
		for seed := uint64(1); seed <= 6; seed++ {
			s := Generate(seed, sc, 6)
			res, err := h.Run(s)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sc, seed, err)
			}
			if len(res.Violations) > 0 {
				t.Errorf("%s seed %d: %+v (events %v, fires %v)",
					sc, seed, res.Violations, s.Events, res.Fires)
			}
		}
	}
	if faults.Armed() {
		t.Fatal("harness leaked an armed plan")
	}
}

// TestRunDeterministic: the same schedule produces the same checksum,
// fire tallies and outcome every time — the property replay rests on.
func TestRunDeterministic(t *testing.T) {
	h := NewHarness()
	for _, sc := range []string{ScenarioPhaseShift, ScenarioServer} {
		s := Generate(11, sc, 6)
		a, err := h.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := h.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if a.Checksum != b.Checksum || !reflect.DeepEqual(a.Fires, b.Fires) || a.Outcome() != b.Outcome() {
			t.Fatalf("%s: nondeterministic run:\n%+v\n%+v", sc, a, b)
		}
	}
}

// TestChecksumInvariantUnderFaults: a hostile schedule hammering every
// workload seam must not change what the program computes — the faulted
// checksum equals the fault-free reference (faults are contained in the
// profiling/adaptation plane, never the data plane).
func TestChecksumInvariantUnderFaults(t *testing.T) {
	h := NewHarness()
	s := Schedule{Version: ScheduleVersion, Scenario: ScenarioPhaseShift, Events: []Event{
		{Seam: SeamRulePanic, Start: 1, Count: 3},
		{Seam: SeamCorruptSnapshot, Start: 1, Count: 4, Magnitude: 2}, // NaN corruption
		{Seam: SeamTornWrite, Start: 1, Count: 2, Magnitude: 0.3},
		{Seam: SeamOverheadSpike, Start: 1, Count: 6, Magnitude: 2e9},
		{Seam: SeamVerifySkew, Start: 1, Count: 4, Magnitude: 0.25},
	}}
	res, err := h.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != res.Reference {
		t.Fatalf("checksum %#x != reference %#x under faults", res.Checksum, res.Reference)
	}
	if res.Fires[SeamRulePanic].Fires == 0 {
		t.Fatal("rule-panic never fired; the test exercised nothing")
	}
	if len(res.Violations) > 0 {
		t.Fatalf("unexpected violations: %+v", res.Violations)
	}
}

// TestGovernorRecoversAfterSpike: an overhead spike must drive the ladder
// down during the run and the recovery phase must bring it back — the
// no-wedge auditor passing proves it, and the spike firing proves the
// degradation actually happened.
func TestGovernorRecoversAfterSpike(t *testing.T) {
	h := NewHarness()
	s := Schedule{Version: ScheduleVersion, Scenario: ScenarioServer, Events: []Event{
		{Seam: SeamOverheadSpike, Start: 1, Count: 9, Magnitude: 3e9},
	}}
	res, err := h.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires[SeamOverheadSpike].Fires == 0 {
		t.Fatal("spike never fired")
	}
	if len(res.Violations) > 0 {
		t.Fatalf("ladder did not recover: %+v", res.Violations)
	}
}

// TestPanicBudgetDisablesWithinContainment: enough injected rule panics
// to blow the selector-wide budget is a *legal* degraded state — the
// containment auditor must accept disabled⇔budget-exhausted, not flag it.
func TestPanicBudgetDisablesWithinContainment(t *testing.T) {
	h := NewHarness()
	s := Schedule{Version: ScheduleVersion, Scenario: ScenarioContextStorm, Events: []Event{
		{Seam: SeamRulePanic, Start: 1, Count: 64},
	}}
	res, err := h.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires[SeamRulePanic].Fires < 8 {
		t.Skipf("only %d panics injected; budget not reachable at this scale", res.Fires[SeamRulePanic].Fires)
	}
	if res.HasViolation(AuditContainment) {
		t.Fatalf("budget-exhausted disable flagged as a containment violation: %+v", res.Violations)
	}
}

// TestAuditorsFlagSyntheticViolations: each auditor trips on a report
// exhibiting exactly its invariant's breach — the auditors are the
// product here, so they get direct coverage, not only end-to-end.
func TestAuditorsFlagSyntheticViolations(t *testing.T) {
	clean := func() *report {
		return &report{fires: map[string]Fired{}}
	}
	cases := []struct {
		name    string
		auditor string
		mutate  func(*report)
	}{
		{"checksum drift", AuditChecksum, func(r *report) { r.checksum = 1; r.reference = 2 }},
		{"unexplained record loss", AuditAccounting, func(r *report) { r.snapWritten = 10; r.snapRead = 7 }},
		{"quarantine imbalance", AuditAccounting, func(r *report) { r.quarantines = 3; r.rollbacks = 1 }},
		{"stuck claim", AuditNoWedge, func(r *report) { r.stuckClaims = []uint64{0xbeef} }},
		{"ladder stuck", AuditNoWedge, func(r *report) { r.recoverOut = true }},
		{"paused at full", AuditNoWedge, func(r *report) { r.paused = true }},
		{"escaped panic", AuditContainment, func(r *report) { r.escaped = []string{"slice 0: boom"} }},
		{"spontaneous panic", AuditContainment, func(r *report) { r.panics = 1 }},
		{"early disable", AuditContainment, func(r *report) { r.disabled = true; r.panicBudget = 8; r.panics = 2 }},
	}
	for _, c := range cases {
		rep := clean()
		c.mutate(rep)
		vs := audit(rep)
		found := false
		for _, v := range vs {
			if v.Auditor == c.auditor {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: auditor %q did not flag it (got %+v)", c.name, c.auditor, vs)
		}
	}
	if vs := audit(clean()); len(vs) != 0 {
		t.Fatalf("clean report flagged: %+v", vs)
	}
}
