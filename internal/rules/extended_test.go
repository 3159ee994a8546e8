package rules

import (
	"testing"

	"chameleon/internal/spec"
)

func TestStableSyntaxParsesAndPrints(t *testing.T) {
	r := mustParseRule(t, "HashMap : maxSize >= 16 && stable(maxSize) < 4 -> OpenHashMap")
	printed := PrintRule(r)
	r2, err := ParseRule(printed)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if PrintRule(r2) != printed {
		t.Fatalf("round trip unstable: %q vs %q", printed, PrintRule(r2))
	}
	and := r.Cond.(*AndCond)
	cmp := and.R.(*Comparison)
	sr, ok := cmp.L.(*StableRef)
	if !ok || sr.Name != "maxSize" {
		t.Fatalf("stable ref not parsed: %#v", cmp.L)
	}
}

func TestStableIsNotAKeyword(t *testing.T) {
	// "stable" without parentheses is an ordinary parameter name.
	r := mustParseRule(t, "HashMap : maxSize > stable -> ArrayMap")
	cmp := r.Cond.(*Comparison)
	if _, ok := cmp.R.(*ParamRef); !ok {
		t.Fatalf("bare 'stable' should be a ParamRef, got %#v", cmp.R)
	}
}

func TestStableCheck(t *testing.T) {
	rs, err := Parse("HashMap : stable(notAMetric) < 1 -> ArrayMap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Bind(rs, DefaultParams); err == nil {
		t.Fatal("stable() over unknown metric not caught")
	}
}

func TestExplicitStableOverridesImplicitGate(t *testing.T) {
	p := &fakeProfile{
		kind:      spec.KindHashMap,
		opMeans:   map[string]float64{"put": 40},
		metrics:   map[string]float64{"maxSize": 40},
		stability: map[string]float64{"maxSize": 30}, // wildly unstable
	}
	// Implicit gate blocks a size-conditioned rule...
	blocked := mustParseRule(t, "HashMap : maxSize > 10 -> OpenHashMap")
	if _, ok, _ := EvalRule(blocked, p, nil); ok {
		t.Fatal("implicit gate should block")
	}
	// ...but a rule that checks stability explicitly governs itself.
	explicit := mustParseRule(t, "HashMap : maxSize > 10 && stable(maxSize) < 50 -> OpenHashMap")
	if _, ok, _ := EvalRule(explicit, p, nil); !ok {
		t.Fatal("explicit stable() should bypass the implicit gate")
	}
	strict := mustParseRule(t, "HashMap : maxSize > 10 && stable(maxSize) < 5 -> OpenHashMap")
	if _, ok, _ := EvalRule(strict, p, nil); ok {
		t.Fatal("explicit stable() bound should still be enforced by the condition")
	}
}

// A metric the rule checks with stable() leaves the implicit gate; the
// others it reads stay gated.
func TestExplicitStables(t *testing.T) {
	r := mustParseRule(t, "HashMap : stable(maxSize) < 2 && stable(size) < 3 && maxSize > 1 && initialCapacity > 0 -> ArrayMap")
	if got := r.facts().gated; len(got) != 1 || got[0] != "initialCapacity" {
		t.Fatalf("gated metrics = %v, want [initialCapacity]", got)
	}
}

func TestExtendedRuleSet(t *testing.T) {
	ext := Extended()
	if len(ext.Rules) <= len(Builtin().Rules) {
		t.Fatal("extended set not larger than builtin")
	}

	// A large stable HashMap with no containsValue: OpenHashMap fires.
	bigMap := &fakeProfile{
		kind:    spec.KindHashMap,
		opMeans: map[string]float64{"put": 64, "get(Object)": 500},
		metrics: map[string]float64{"maxSize": 64, "initialCapacity": 64},
	}
	ms, err := Eval(ext, bigMap)
	if err != nil {
		t.Fatal(err)
	}
	var sawOpen bool
	for _, m := range ms {
		if m.Rule.Act.Impl == spec.KindOpenHashMap {
			sawOpen = true
			if m.Capacity != 64 {
				t.Fatalf("open map capacity = %d", m.Capacity)
			}
		}
	}
	if !sawOpen {
		t.Fatalf("OpenHashMap rule did not fire: %v", ms)
	}

	// A forward-only LinkedList: SinglyLinkedList fires.
	fwdList := &fakeProfile{
		kind:    spec.KindLinkedList,
		opMeans: map[string]float64{"add": 20, "iterator": 5},
		metrics: map[string]float64{"maxSize": 20},
	}
	ms2, err := Eval(ext, fwdList)
	if err != nil {
		t.Fatal(err)
	}
	var sawSLL bool
	for _, m := range ms2 {
		if m.Rule.Act.Impl == spec.KindSinglyLinkedList {
			sawSLL = true
		}
	}
	if !sawSLL {
		t.Fatalf("SinglyLinkedList rule did not fire: %v", ms2)
	}

	// The same list with listIterator use must NOT be suggested a
	// singly-linked implementation (§5.4's whole point).
	backList := &fakeProfile{
		kind:    spec.KindLinkedList,
		opMeans: map[string]float64{"add": 20, "listIterator": 2},
		metrics: map[string]float64{"maxSize": 20},
	}
	ms3, _ := Eval(ext, backList)
	for _, m := range ms3 {
		if m.Rule.Act.Impl == spec.KindSinglyLinkedList {
			t.Fatal("SinglyLinkedList suggested despite listIterator use")
		}
	}
}

// TestShippedSetsIndependent: Builtin and Extended parse their sources
// once and share the rules, so each returned set must own what a caller
// appends: appending to one set changes neither the next Builtin() or
// Extended() nor another returned set.
func TestShippedSetsIndependent(t *testing.T) {
	builtin, extended := Print(Builtin()), Print(Extended())
	extra := mustParseRule(t, `List : maxSize == 0 -> ArrayList`)
	other := mustParseRule(t, `Set : maxSize == 0 -> HashSet`)
	for _, load := range []func() *RuleSet{Builtin, Extended} {
		a, b := load(), load()
		a.Rules = append(a.Rules, extra)
		b.Rules = append(b.Rules, other)
		if a.Rules[len(a.Rules)-1] != extra {
			t.Errorf("appending to one returned set overwrote another's appended rule")
		}
	}
	if got := Print(Builtin()); got != builtin {
		t.Errorf("Builtin() changed after appends:\n%s", got)
	}
	if got := Print(Extended()); got != extended {
		t.Errorf("Extended() changed after appends:\n%s", got)
	}
	if b, e := Builtin().Rules, Extended().Rules; len(e) <= len(b) || e[0] != b[0] {
		t.Errorf("Extended() does not start with the builtin rules")
	}
}
