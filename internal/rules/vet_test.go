package rules

import (
	"encoding/json"
	"strings"
	"testing"
)

// vetOne parses src and vets it under the default parameters.
func vetOne(t *testing.T, src string) []Diagnostic {
	t.Helper()
	rs, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return vet(rs, DefaultParams)
}

// codesOf projects diagnostics to their codes, in order.
func codesOf(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Code
	}
	return out
}

func TestVetDiagnosticKinds(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string // expected codes, in position order
		sev  Severity // severity of the first expected diagnostic
	}{
		{
			name: "unsatisfiable conjunction over a parameter",
			src:  "ArrayList : maxSize < 2 && maxSize > Y -> LinkedHashSet",
			want: []string{CodeUnsatisfiable},
			sev:  SevError,
		},
		{
			name: "unsatisfiable against a metric's base domain",
			src:  "ArrayList : emptyFraction > 2 -> LazyArrayList",
			want: []string{CodeUnsatisfiable},
			sev:  SevError,
		},
		{
			name: "unsatisfiable negative count",
			src:  "ArrayList : #add < 0 -> LazyArrayList",
			want: []string{CodeUnsatisfiable},
			sev:  SevError,
		},
		{
			name: "always-true single comparison",
			src:  "ArrayList : #add >= 0 -> LazyArrayList",
			want: []string{CodeAlwaysTrue},
			sev:  SevWarning,
		},
		{
			name: "always-true fraction bound inside a conjunction",
			src:  "ArrayList : emptyFraction <= 1 && #add > X -> LazyArrayList",
			want: []string{CodeAlwaysTrue},
			sev:  SevWarning,
		},
		{
			name: "never-true disjunct leaves the condition satisfiable",
			src:  "ArrayList : maxSize < 0 || #add > X -> LazyArrayList",
			want: []string{CodeNeverTrue},
			sev:  SevWarning,
		},
		{
			name: "shadowed by an identical earlier rule",
			src: "ArrayList : #contains > X -> LinkedHashSet\n" +
				"ArrayList : #contains > X -> LinkedHashSet\n",
			want: []string{CodeShadowed},
			sev:  SevWarning,
		},
		{
			name: "shadowed by a strictly weaker earlier bound",
			src: "List : maxSize > Z -> ArrayList\n" +
				"ArrayList : maxSize > Y && #add > X -> LinkedList\n",
			// Z=16 < Y=32: maxSize > 32 implies maxSize > 16, List
			// subsumes ArrayList, so the second rule is never primary.
			want: []string{CodeShadowed},
			sev:  SevWarning,
		},
		{
			name: "shadowed by an always-true earlier condition",
			src: "LinkedList : #get(int) >= 0 -> ArrayList\n" +
				"LinkedList : #get(int) > X -> ArrayList\n",
			want: []string{CodeAlwaysTrue, CodeShadowed},
			sev:  SevWarning,
		},
		{
			name: "unsatisfiable rule after a covering rule is not also shadowed",
			src: "HashMap : maxSize < 8 -> ArrayMap\n" +
				"HashMap : maxSize * 2 < 0 -> ArrayMap\n",
			want: []string{CodeUnsatisfiable},
			sev:  SevError,
		},
		{
			name: "unsatisfiable difference",
			src:  "ArrayList : 0 - maxSize > 1 -> LinkedList",
			want: []string{CodeUnsatisfiable},
			sev:  SevError,
		},
		{
			// 0 * inf is indeterminate: the product widens to the full
			// line, so vet proves nothing about it.
			name: "product with zero stays unknown",
			src:  "ArrayList : maxSize * 0 > 1 -> LinkedList",
			want: nil,
		},
		{
			name: "map operation on a list srcType",
			src:  "List : #put > X -> ArrayList",
			want: []string{CodeVacuousOp},
			sev:  SevWarning,
		},
		{
			name: "containsKey variance on a concrete list srcType",
			src:  "ArrayList : @containsKey > X -> LinkedList",
			want: []string{CodeVacuousOp},
			sev:  SevWarning,
		},
		{
			name: "self-replacement without a capacity change",
			src:  "ArrayList : maxSize > Y -> ArrayList",
			want: []string{CodeSelfReplace},
			sev:  SevWarning,
		},
		{
			name: "zero divisor",
			src:  "HashMap : #get(Object) + #put / 0 > X -> ArrayMap",
			want: []string{CodeZeroDivisor},
			sev:  SevWarning,
		},
		{
			name: "stable() on a metric the rule never reads",
			src:  "HashSet : stable(maxSize) < S && #add > X -> OpenHashSet",
			want: []string{CodeStableUnread},
			sev:  SevWarning,
		},
		{
			name: "explicit instability bound contradicts the implicit gate",
			src:  "HashMap : size > 0 && maxSize > Z && stable(maxSize) > S -> OpenHashMap",
			want: []string{CodeStableConflict},
			sev:  SevError,
		},
		{
			name: "clean rule",
			src:  "ArrayList : #contains > X && maxSize > Y -> LinkedHashSet",
			want: nil,
		},
		{
			name: "clean guarded ratio",
			src:  "Collection : #allOps > 0 && #copied / #allOps >= F -> eliminateCopies",
			want: nil,
		},
		{
			name: "explicit stable() read with the metric is clean",
			src:  "HashMap : maxSize >= Z && stable(maxSize) < S -> OpenHashMap(maxSize)",
			want: nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := vetOne(t, c.src)
			if gc := codesOf(got); !equalStrings(gc, c.want) {
				t.Fatalf("codes = %v, want %v\ndiags: %v", gc, c.want, got)
			}
			if len(c.want) > 0 && got[0].Severity != c.sev {
				t.Errorf("severity = %v, want %v", got[0].Severity, c.sev)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The shipped rule sets must stay semantically clean.
func TestVetShippedRuleSetsClean(t *testing.T) {
	for _, c := range []struct {
		name string
		rs   *RuleSet
	}{
		{"builtin", Builtin()},
		{"extended", Extended()},
	} {
		if diags := vet(c.rs, DefaultParams); len(diags) != 0 {
			for _, d := range diags {
				t.Errorf("%s: %s", c.name, d)
			}
		}
	}
}

func TestVetShadowedCarriesRelatedPosition(t *testing.T) {
	diags := vetOne(t,
		"Collection : #allOps == 0 -> avoid\n"+
			"HashMap : #allOps == 0 -> avoid\n")
	if len(diags) != 1 || diags[0].Code != CodeShadowed {
		t.Fatalf("diags = %v, want one shadowed", diags)
	}
	d := diags[0]
	if d.Rule != 2 || d.Pos.Line != 2 {
		t.Errorf("shadowed rule at rule=%d line=%d, want rule 2 line 2", d.Rule, d.Pos.Line)
	}
	if d.Related == nil || d.Related.Line != 1 {
		t.Errorf("related = %v, want line 1", d.Related)
	}
}

// A narrower earlier rule must NOT shadow a broader later one, and an
// earlier rule with a stricter stability gate must not count as covering
// a later rule that reads no size metrics.
func TestVetNoFalseShadowing(t *testing.T) {
	for _, src := range []string{
		// Earlier is narrower (ArrayList) than later (List): no subsumption.
		"ArrayList : maxSize > Y -> LinkedHashSet\nList : maxSize > Y -> ArrayList\n",
		// Later condition does not imply the earlier one.
		"ArrayList : maxSize > Y -> LinkedHashSet\nArrayList : maxSize > Z -> LazyArrayList\n",
		// Earlier reads maxSize (implicit gate); later reads none, so the
		// earlier gate can block contexts where the later still fires.
		"Collection : maxSize > 0 && #allOps > 0 -> setCapacity(maxSize)\nCollection : #allOps > 0 -> avoid\n",
	} {
		rs, err := Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		for _, d := range vet(rs, DefaultParams) {
			if d.Code == CodeShadowed {
				t.Errorf("false shadowing on:\n%s  diag: %s", src, d)
			}
		}
	}
}

// An unbound parameter must widen the analysis, not produce verdicts.
func TestVetUnboundParameterWidens(t *testing.T) {
	rs, err := Parse("ArrayList : maxSize < 2 && maxSize > UNBOUND -> LinkedHashSet")
	if err != nil {
		t.Fatal(err)
	}
	if diags := vet(rs, Params{}); len(diags) != 0 {
		t.Errorf("diags = %v, want none (UNBOUND is unconstrained)", diags)
	}
}

func TestVetNilRuleSet(t *testing.T) {
	if diags := vet(nil, nil); diags != nil {
		t.Errorf("vet(nil) = %v, want nil", diags)
	}
}

func TestDiagnosticRendering(t *testing.T) {
	diags := vetOne(t, "ArrayList : #add < 0 -> LazyArrayList")
	if len(diags) != 1 {
		t.Fatalf("diags = %v, want 1", diags)
	}
	s := diags[0].String()
	for _, want := range []string{"error", "[unsat]", "rule 1", "1:18"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	b, err := json.Marshal(diags[0])
	if err != nil {
		t.Fatal(err)
	}
	var back Diagnostic
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Code != CodeUnsatisfiable || back.Severity != SevError || back.Pos != diags[0].Pos {
		t.Errorf("JSON round trip lost fields: %+v", back)
	}
	if !strings.Contains(string(b), `"severity":"error"`) {
		t.Errorf("severity not marshaled as a name: %s", b)
	}
}
