package advisor

import (
	"strings"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
	"chameleon/internal/spec"
)

func TestPlanFromTVLAStyleReport(t *testing.T) {
	rep, err := Advise(buildTVLAStyleSnapshot(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(rep)
	if plan.Len() < 2 {
		t.Fatalf("plan rewrites %d contexts:\n%s", plan.Len(), plan.String())
	}
	// The top suggestion (HashMap -> ArrayMap, capacity 7) must be in the
	// plan keyed by its context.
	top := rep.Suggestions[0]
	dec := plan.Select(top.Profile.Context, spec.KindHashMap,
		collections.Decision{Impl: spec.KindHashMap})
	if dec.Impl != spec.KindArrayMap {
		t.Fatalf("plan decision = %+v", dec)
	}
	if dec.Capacity != 7 {
		t.Fatalf("plan capacity = %d, want 7", dec.Capacity)
	}
	// Unknown contexts fall through to the default.
	def := collections.Decision{Impl: spec.KindHashMap, Capacity: 3}
	if got := plan.Select(alloctx.NewTable().Static("unknown.site:1"), spec.KindHashMap, def); got != def {
		t.Fatalf("unknown context rewrote: %+v", got)
	}
	if !strings.Contains(plan.String(), "replace with ArrayMap") {
		t.Fatalf("plan rendering:\n%s", plan.String())
	}
}

// Regression for the NewIntArrayList decide bypass: a capacity rule
// compiled into a plan must now reach IntArray allocation sites. The
// profile shows lists growing far past their initial capacity, the builtin
// setCapacity rule fires, and a runtime carrying the plan hands the tuned
// capacity to NewIntArrayList — while the backing stays the unboxed array.
func TestPlanCapacityRuleAppliesToIntArraySites(t *testing.T) {
	const label = "soot.util.IntList:19;soot.Body:204"
	tab := alloctx.NewTable()
	p := profiler.New()
	ctx := tab.Static(label)
	for i := 0; i < 4; i++ {
		in := p.OnAlloc(ctx, spec.KindIntArray, spec.KindIntArray, 10)
		for j := 0; j < 48; j++ {
			in.Record(spec.Add)
			in.NoteSize(j + 1)
		}
		p.OnDeath(in)
	}

	rep, err := Advise(p.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(rep)
	entry, ok := plan.Entry(ctx.Key())
	if !ok {
		t.Fatalf("no plan entry for the IntArray context:\n%s", plan.String())
	}
	if entry.Action != rules.ActSetCapacity || entry.Decision.Capacity != 48 {
		t.Fatalf("entry = %+v, want setCapacity(48)", entry)
	}

	rt := collections.NewRuntime(collections.Config{
		Contexts: tab,
		Mode:     alloctx.Static,
		Selector: plan,
	})
	l := collections.NewIntArrayList(rt, collections.At(label))
	if l.Kind() != spec.KindIntArray {
		t.Fatalf("impl = %v, want IntArray pinned", l.Kind())
	}
	if l.Capacity() != 48 {
		t.Fatalf("capacity = %d, want the rule's 48 (decision bypassed decide)", l.Capacity())
	}
	l.Free()

	// Entries round-trips the same decision.
	found := false
	for _, e := range plan.Entries() {
		if e.ContextKey == ctx.Key() && e.Decision == entry.Decision && e.Action == entry.Action {
			found = true
		}
	}
	if !found {
		t.Fatalf("Entries() does not carry the IntArray decision")
	}
}

func TestPlanSkipsCrossADTAndAdvisory(t *testing.T) {
	// The contains-heavy ArrayList context's primary suggestion is the
	// cross-ADT LinkedHashSet; the plan must skip it but may keep the
	// setCapacity match.
	rep, err := Advise(buildContainsHeavySnapshot(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(rep)
	for _, s := range rep.Suggestions {
		dec := plan.Select(s.Profile.Context, s.Profile.Declared,
			collections.Decision{Impl: s.Profile.Declared})
		if dec.Impl.Abstract() != s.Profile.Declared.Abstract() {
			t.Fatalf("plan crossed ADTs: %v -> %v", s.Profile.Declared, dec.Impl)
		}
	}
}
