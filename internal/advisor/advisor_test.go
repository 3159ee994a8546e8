package advisor

import (
	"encoding/json"
	"strings"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/heap"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
	"chameleon/internal/spec"
)

// buildTVLAStyleSnapshot fabricates a snapshot with the paper's §2.1
// shape: a dominant small-HashMap context, an undersized ArrayList
// context, and a low-potential context.
func buildTVLAStyleSnapshot(t *testing.T) []*profiler.Profile {
	t.Helper()
	tab := alloctx.NewTable()
	p := profiler.New()

	// Context 1: many small get-dominated HashMaps; huge potential.
	c1 := tab.Static("tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50")
	for i := 0; i < 10; i++ {
		in := p.OnAlloc(c1, spec.KindHashMap, spec.KindHashMap, 16)
		for j := 0; j < 7; j++ {
			in.Record(spec.Put)
			in.NoteSize(j + 1)
		}
		for j := 0; j < 100; j++ {
			in.Record(spec.GetKey)
		}
		p.OnDeath(in)
	}
	p.ObserveCycle(&heap.CycleStats{PerContext: []heap.ContextCycle{
		{Slot: c1.Slot(), Key: c1.Key(), Footprint: heap.Footprint{Live: 200000, Used: 80000, Core: 40000}, Objects: 10},
	}})

	// Context 2: ArrayList growing past its initial capacity.
	c2 := tab.Static("BaseHashTVSSet:112;tvla.core.base.BaseHashTVSSet:60")
	for i := 0; i < 5; i++ {
		in := p.OnAlloc(c2, spec.KindArrayList, spec.KindArrayList, 10)
		for j := 0; j < 40; j++ {
			in.Record(spec.Add)
			in.NoteSize(j + 1)
		}
		p.OnDeath(in)
	}
	p.ObserveCycle(&heap.CycleStats{PerContext: []heap.ContextCycle{
		{Slot: c2.Slot(), Key: c2.Key(), Footprint: heap.Footprint{Live: 50000, Used: 40000, Core: 30000}, Objects: 5},
	}})

	// Context 3: negligible potential, small HashSet.
	c3 := tab.Static("tiny:1")
	in := p.OnAlloc(c3, spec.KindHashSet, spec.KindHashSet, 16)
	in.Record(spec.Add)
	in.NoteSize(1)
	p.OnDeath(in)
	p.ObserveCycle(&heap.CycleStats{PerContext: []heap.ContextCycle{
		{Slot: c3.Slot(), Key: c3.Key(), Footprint: heap.Footprint{Live: 300, Used: 200, Core: 50}, Objects: 1},
	}})

	return p.Snapshot()
}

// buildContainsHeavySnapshot fabricates a contains-heavy large-ArrayList
// context whose first suggestion is the cross-ADT LinkedHashSet rule.
func buildContainsHeavySnapshot(t *testing.T) []*profiler.Profile {
	t.Helper()
	tab := alloctx.NewTable()
	p := profiler.New()
	ctx := tab.Static("search.Vocab:12;search.Main:40")
	for i := 0; i < 3; i++ {
		in := p.OnAlloc(ctx, spec.KindArrayList, spec.KindArrayList, 10)
		for j := 0; j < 100; j++ {
			in.Record(spec.Add)
			in.NoteSize(j + 1)
		}
		for j := 0; j < 200; j++ {
			in.Record(spec.Contains)
		}
		p.OnDeath(in)
	}
	p.ObserveCycle(&heap.CycleStats{PerContext: []heap.ContextCycle{
		{Slot: ctx.Slot(), Key: ctx.Key(), Footprint: heap.Footprint{Live: 40000, Used: 30000, Core: 20000}, Objects: 3},
	}})
	return p.Snapshot()
}

func TestAdviseRanksAndSuggests(t *testing.T) {
	rep, err := Advise(buildTVLAStyleSnapshot(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ranked) != 3 {
		t.Fatalf("ranked = %d", len(rep.Ranked))
	}
	if rep.Ranked[0].Context.String() != "tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50" {
		t.Fatalf("top context = %s", rep.Ranked[0].Context)
	}

	if len(rep.Suggestions) < 2 {
		t.Fatalf("suggestions = %d: %s", len(rep.Suggestions), rep.Format())
	}
	top := rep.Suggestions[0]
	if top.Rank != 1 {
		t.Fatalf("top rank = %d", top.Rank)
	}
	if top.Primary.Rule.Act.Kind != rules.ActReplace || top.Primary.Rule.Act.Impl != spec.KindArrayMap {
		t.Fatalf("top fix = %s", Describe(top.Primary))
	}

	var sawSetCapacity bool
	for _, s := range rep.Suggestions {
		if s.Profile.Context.String() == "BaseHashTVSSet:112;tvla.core.base.BaseHashTVSSet:60" {
			if s.Primary.Rule.Act.Kind == rules.ActSetCapacity && s.Primary.Capacity == 40 {
				sawSetCapacity = true
			}
		}
	}
	if !sawSetCapacity {
		t.Fatalf("no set-initial-capacity suggestion for the growing ArrayList:\n%s", rep.Format())
	}
}

func TestMinPotentialGatesSpaceRules(t *testing.T) {
	profiles := buildTVLAStyleSnapshot(t)
	rep, err := Advise(profiles, Options{MinPotential: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Suggestions {
		if s.Profile.Context.String() == "tiny:1" {
			if s.Primary.Rule.Act.Kind == rules.ActReplace && s.Primary.Rule.Category() == "Space" {
				t.Fatalf("negligible-potential space replacement not suppressed")
			}
		}
	}
	// Disabling the gate lets the tiny context get its ArraySet suggestion.
	rep2, err := Advise(profiles, Options{MinPotential: -1})
	if err != nil {
		t.Fatal(err)
	}
	var sawTiny bool
	for _, s := range rep2.Suggestions {
		if s.Profile.Context.String() == "tiny:1" && s.Primary.Rule.Act.Impl == spec.KindArraySet {
			sawTiny = true
		}
	}
	if !sawTiny {
		t.Fatalf("ungated advise lost the small-set suggestion:\n%s", rep2.Format())
	}
}

func TestTopLimitsContexts(t *testing.T) {
	rep, err := Advise(buildTVLAStyleSnapshot(t), Options{Top: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ranked) != 1 {
		t.Fatalf("top-1 kept %d contexts", len(rep.Ranked))
	}
}

func TestReportFormats(t *testing.T) {
	rep, err := Advise(buildTVLAStyleSnapshot(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Format()
	if !strings.Contains(text, "1: HashMap:tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50 replace with ArrayMap") {
		t.Fatalf("report lacks the paper-style line:\n%s", text)
	}
	top := rep.FormatTopContexts(2)
	if !strings.Contains(top, "context 1:") || !strings.Contains(top, "get(Object)=1000") {
		t.Fatalf("top-contexts view wrong:\n%s", top)
	}
	if strings.Contains(top, "context 3:") {
		t.Fatalf("FormatTopContexts(2) leaked a third context")
	}
}

func TestReportJSON(t *testing.T) {
	rep, err := Advise(buildTVLAStyleSnapshot(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(rep.Suggestions) {
		t.Fatalf("json rows = %d, want %d", len(decoded), len(rep.Suggestions))
	}
	if decoded[0]["fix"] != "replace with ArrayMap (initial capacity 7)" &&
		decoded[0]["fix"] != "replace with ArrayMap" {
		t.Fatalf("fix = %v", decoded[0]["fix"])
	}
}

func TestDescribeAllActionKinds(t *testing.T) {
	mk := func(src string) rules.Match {
		r, err := rules.ParseRule(src)
		if err != nil {
			t.Fatal(err)
		}
		return rules.Match{Rule: r, Capacity: 8}
	}
	cases := map[string]string{
		"HashMap : maxSize < 16 -> ArrayMap":                 "replace with ArrayMap",
		"HashMap : maxSize < 16 -> ArrayMap(maxSize)":        "replace with ArrayMap (initial capacity 8)",
		"Collection : maxSize > 0 -> setCapacity(maxSize)":   "set initial capacity to 8",
		"Collection : #allOps == 0 -> avoid":                 "avoid allocation",
		"Collection : #allOps == #copied -> eliminateCopies": "eliminate temporary copies",
		"Collection : emptyIterators > 1 -> removeIterator":  "remove iterator over empty collection",
	}
	for src, want := range cases {
		if got := Describe(mk(src)); got != want {
			t.Errorf("%q -> %q, want %q", src, got, want)
		}
	}
}

// A semantically broken custom rule set surfaces its vet findings in the
// report; the shipped sets stay clean, so the header never appears for them.
func TestAdviseSurfacesRuleDiagnostics(t *testing.T) {
	rs := bindRules(t, "HashMap : maxSize < 2 && maxSize > 32 -> ArrayMap\n"+
		"HashMap : #get(Object) > 50 -> LinkedHashMap \"Time: custom\"\n")
	rep, err := Advise(buildTVLAStyleSnapshot(t), Options{Rules: rs})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RuleDiagnostics) != 1 || rep.RuleDiagnostics[0].Code != rules.CodeUnsatisfiable {
		t.Fatalf("RuleDiagnostics = %v, want one unsat", rep.RuleDiagnostics)
	}
	text := rep.Format()
	if !strings.Contains(text, "rule diagnostics:") || !strings.Contains(text, "[unsat]") {
		t.Fatalf("report does not surface the vet finding:\n%s", text)
	}
	// The broken rule must not have cost the working one its suggestion.
	if !strings.Contains(text, "replace with LinkedHashMap") {
		t.Fatalf("working rule lost:\n%s", text)
	}

	clean, err := Advise(buildTVLAStyleSnapshot(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.RuleDiagnostics) != 0 || strings.Contains(clean.Format(), "rule diagnostics:") {
		t.Fatalf("builtin rules reported diagnostics: %v", clean.RuleDiagnostics)
	}
}

// Advise reads the rule set's vet findings and each rule's stability gate
// instead of recomputing them: over the 8 tvla contexts of the committed
// snapshot, with the builtin set, a call stays within a few dozen
// allocations (vetting the set on every call made about 1,400, and
// deriving every rule's gate on every evaluation made 113).
func TestAdviseAllocs(t *testing.T) {
	profiles, err := profiler.ReadProfilesFile("../experiments/testdata/tvla_profiles.golden")
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 8 {
		t.Fatalf("snapshot holds %d contexts, want tvla's 8", len(profiles))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Advise(profiles, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("Advise: %.0f allocations per call, want at most 40", allocs)
	}
}

// bindRules parses src and binds it to an empty parameter environment.
func bindRules(t *testing.T, src string) *rules.RuleSet {
	t.Helper()
	rs, err := rules.Parse(src)
	if err == nil {
		rs, err = rules.Bind(rs, rules.Params{})
	}
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestAdviseCustomRules(t *testing.T) {
	rs := bindRules(t, `HashMap : #get(Object) > 50 -> LinkedHashMap "Time: custom"`)
	rep, err := Advise(buildTVLAStyleSnapshot(t), Options{Rules: rs})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Suggestions) != 1 || rep.Suggestions[0].Primary.Rule.Act.Impl != spec.KindLinkedHashMap {
		t.Fatalf("custom rule set misapplied:\n%s", rep.Format())
	}
}
