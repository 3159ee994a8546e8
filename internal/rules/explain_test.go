package rules

import (
	"strings"
	"testing"

	"chameleon/internal/spec"
)

func TestExplainFiringRule(t *testing.T) {
	r := mustParseRule(t, "HashMap : maxSize < Z && maxSize > 0 -> ArrayMap(maxSize)")
	ex := Explain(r, smallHashMapProfile(), Params{"Z": 16})
	if !ex.SrcMatched || !ex.Fired || ex.Err != nil {
		t.Fatalf("explanation: %+v", ex)
	}
	if len(ex.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(ex.Steps))
	}
	s0 := ex.Steps[0]
	if s0.Left != 7 || s0.Right != 16 || !s0.Result {
		t.Fatalf("step 0 = %+v", s0)
	}
	if ex.Capacity != 7 {
		t.Fatalf("capacity = %d", ex.Capacity)
	}
	text := ex.String()
	if !strings.Contains(text, "=> fires (capacity 7)") {
		t.Fatalf("rendering:\n%s", text)
	}
	if !strings.Contains(text, "maxSize < Z") {
		t.Fatalf("rendering lacks comparison:\n%s", text)
	}
}

func TestExplainShortCircuit(t *testing.T) {
	r := mustParseRule(t, "HashMap : maxSize > 100 && #put > 0 -> ArrayMap")
	ex := Explain(r, smallHashMapProfile(), nil)
	if ex.Fired {
		t.Fatal("should not fire")
	}
	// The second comparison never ran.
	if len(ex.Steps) != 1 {
		t.Fatalf("steps = %d, want 1 (short circuit)", len(ex.Steps))
	}
	if !strings.Contains(ex.String(), "=> does not fire") {
		t.Fatalf("rendering:\n%s", ex.String())
	}
}

func TestExplainSrcMismatch(t *testing.T) {
	r := mustParseRule(t, "HashSet : maxSize < 16 -> ArraySet")
	ex := Explain(r, smallHashMapProfile(), nil)
	if ex.SrcMatched || ex.Fired || len(ex.Steps) != 0 {
		t.Fatalf("explanation: %+v", ex)
	}
	if !strings.Contains(ex.String(), "does not match") {
		t.Fatalf("rendering:\n%s", ex.String())
	}
}

func TestExplainStabilityGate(t *testing.T) {
	p := smallHashMapProfile()
	p.stability = map[string]float64{"maxSize": 99}
	r := mustParseRule(t, "HashMap : maxSize < 16 -> ArrayMap")
	ex := Explain(r, p, nil)
	if ex.Fired || len(ex.StabilityBlocked) != 1 || ex.StabilityBlocked[0] != "maxSize" {
		t.Fatalf("explanation: %+v", ex)
	}
	if !strings.Contains(ex.String(), "stability gate") {
		t.Fatalf("rendering:\n%s", ex.String())
	}
}

func TestExplainError(t *testing.T) {
	r := mustParseRule(t, "HashMap : maxSize < UNBOUND -> ArrayMap")
	ex := Explain(r, smallHashMapProfile(), nil)
	if ex.Err == nil {
		t.Fatal("no error recorded")
	}
	if !strings.Contains(ex.String(), "evaluation error") {
		t.Fatalf("rendering:\n%s", ex.String())
	}
}

// Explain and EvalRule must always agree on whether a rule fires and on
// the capacity it applies. A fractional maxSize rounds up in both.
func TestExplainAgreesWithEvalRule(t *testing.T) {
	profiles := []*fakeProfile{
		smallHashMapProfile(),
		{kind: spec.KindLinkedList, opMeans: map[string]float64{"get(int)": 100}, metrics: map[string]float64{"maxSize": 50}},
		{kind: spec.KindArrayList, metrics: map[string]float64{"maxSize": 0}},
		{kind: spec.KindHashSet, opMeans: map[string]float64{"add": 3}, metrics: map[string]float64{"maxSize": 3}},
		{kind: spec.KindHashSet, opMeans: map[string]float64{"add": 3}, metrics: map[string]float64{"maxSize": 3.0000001}},
	}
	for _, rs := range []*RuleSet{Builtin(), Extended()} {
		for _, r := range rs.Rules {
			for i, p := range profiles {
				m, fired, err := EvalRule(r, p, rs.Params())
				ex := Explain(r, p, rs.Params())
				if (err != nil) != (ex.Err != nil) {
					t.Fatalf("rule %q profile %d: error disagreement", PrintRule(r), i)
				}
				if err == nil && fired != ex.Fired {
					t.Fatalf("rule %q profile %d: EvalRule=%v Explain=%v", PrintRule(r), i, fired, ex.Fired)
				}
				if m.Capacity != ex.Capacity {
					t.Fatalf("rule %q profile %d: capacity EvalRule=%d Explain=%d", PrintRule(r), i, m.Capacity, ex.Capacity)
				}
			}
		}
	}
}
