package rules

import (
	"strings"
	"testing"

	"chameleon/internal/spec"
)

// Advisory actions carry no capacity. The parser cannot write this shape,
// so build the rule sets programmatically, as API clients can.
func TestCheckRejectsAdvisoryActionWithCapacity(t *testing.T) {
	for _, kind := range []ActionKind{ActAvoid, ActEliminateCopies, ActRemoveIterator} {
		r := &Rule{
			Src:  spec.KindCollection,
			Cond: &Comparison{Op: ">", L: &OpCount{Name: "allOps"}, R: &NumberLit{Value: 0}},
			Act:  Action{Kind: kind, Capacity: CapSpec{Present: true, Value: 8}},
		}
		errs := check(&RuleSet{Rules: []*Rule{r}}, DefaultParams)
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), "capacity") {
			t.Errorf("%v with capacity: errs = %v, want one capacity error", kind, errs)
		}
		r.Act.Capacity = CapSpec{}
		if errs := check(&RuleSet{Rules: []*Rule{r}}, DefaultParams); len(errs) != 0 {
			t.Errorf("%v without capacity: errs = %v, want none", kind, errs)
		}
	}
}

func TestCheckFlagsDuplicateRules(t *testing.T) {
	src := `
ArrayList : #contains > X && maxSize > Y -> LinkedHashSet "Time: first"
LinkedList : #get(int) > X -> ArrayList
ArrayList : #contains > X && maxSize > Y -> LinkedHashSet "Space: same rule, different message"
`
	rs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	errs := check(rs, DefaultParams)
	if len(errs) != 1 {
		t.Fatalf("errs = %v, want exactly one duplicate error", errs)
	}
	msg := errs[0].Error()
	if !strings.Contains(msg, "duplicate of rule 1") || !strings.Contains(msg, "line 2") {
		t.Errorf("duplicate error = %q, want a reference to rule 1 at line 2", msg)
	}
}

// Same condition and action but different srcType, or same srcType with a
// different capacity, is not a duplicate.
func TestCheckDuplicateRequiresFullIdentity(t *testing.T) {
	src := `
ArrayList : maxSize == 0 -> LazyArrayList
LinkedList : maxSize == 0 -> LazyArrayList
HashSet : maxSize < Z -> ArraySet(maxSize)
HashSet : maxSize < Z -> ArraySet(8)
`
	rs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Bind(rs, DefaultParams); err != nil {
		t.Errorf("err = %v, want none", err)
	}
}
