package rules

import (
	"sync"
	"testing"

	"chameleon/internal/spec"
)

// fakeProfile is a hand-built Profile for evaluator tests.
type fakeProfile struct {
	kind      spec.Kind
	opMeans   map[string]float64
	opStds    map[string]float64
	metrics   map[string]float64
	stability map[string]float64
}

func (f *fakeProfile) OpMeanByName(name string) (float64, bool) {
	if name == "allOps" {
		var sum float64
		for _, v := range f.opMeans {
			sum += v
		}
		return sum, true
	}
	if _, ok := spec.OpByName(name); !ok {
		return 0, false
	}
	return f.opMeans[name], true
}

func (f *fakeProfile) OpStdDevByName(name string) (float64, bool) {
	if _, ok := spec.OpByName(name); !ok {
		return 0, false
	}
	return f.opStds[name], true
}

func (f *fakeProfile) Metric(name string) (float64, bool) {
	v, ok := f.metrics[name]
	if !ok {
		if !isMetricName(name) {
			return 0, false
		}
		return 0, true
	}
	return v, true
}

func (f *fakeProfile) Stability(name string) float64 { return f.stability[name] }
func (f *fakeProfile) SrcKind() spec.Kind            { return f.kind }

func smallHashMapProfile() *fakeProfile {
	return &fakeProfile{
		kind:    spec.KindHashMap,
		opMeans: map[string]float64{"put": 7, "get(Object)": 120},
		metrics: map[string]float64{"maxSize": 7, "initialCapacity": 16, "maxLive": 10000, "maxUsed": 4000},
	}
}

func TestEvalRuleFires(t *testing.T) {
	r := mustParseRule(t, "HashMap : maxSize < Z && maxSize > 0 -> ArrayMap(maxSize)")
	m, ok, err := EvalRule(r, smallHashMapProfile(), Params{"Z": 16})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("rule should fire")
	}
	if m.Capacity != 7 {
		t.Fatalf("capacity = %d, want maxSize=7", m.Capacity)
	}
}

func TestEvalRuleSrcTypeMismatch(t *testing.T) {
	r := mustParseRule(t, "HashSet : maxSize < 16 -> ArraySet")
	_, ok, err := EvalRule(r, smallHashMapProfile(), nil)
	if err != nil || ok {
		t.Fatalf("HashSet rule must not fire on a HashMap context (ok=%v err=%v)", ok, err)
	}
}

func TestEvalRuleAbstractSrcMatches(t *testing.T) {
	r := mustParseRule(t, "Map : maxSize < 16 -> ArrayMap")
	_, ok, err := EvalRule(r, smallHashMapProfile(), nil)
	if err != nil || !ok {
		t.Fatalf("Map rule should fire on HashMap context (ok=%v err=%v)", ok, err)
	}
	r2 := mustParseRule(t, "Collection : maxSize < 16 -> ArrayMap")
	if _, ok, _ := EvalRule(r2, smallHashMapProfile(), nil); !ok {
		t.Fatal("Collection rule should fire on any collection context")
	}
}

func TestEvalStabilityGating(t *testing.T) {
	p := smallHashMapProfile()
	p.stability = map[string]float64{"maxSize": 50} // wildly varying sizes
	r := mustParseRule(t, "HashMap : maxSize < 16 -> ArrayMap")
	if _, ok, _ := EvalRule(r, p, nil); ok {
		t.Fatal("unstable maxSize must block a size-conditioned rule (Definition 3.1)")
	}
	// A rule that does not read size metrics is unaffected.
	r2 := mustParseRule(t, "HashMap : #get(Object) > 10 -> ArrayMap")
	if _, ok, _ := EvalRule(r2, p, nil); !ok {
		t.Fatal("op-count rules are not stability-restricted (§3.3.1)")
	}
}

func TestEvalOperatorsAndArithmetic(t *testing.T) {
	p := &fakeProfile{
		kind:    spec.KindLinkedList,
		opMeans: map[string]float64{"addAt": 2, "removeAt": 3, "get(int)": 50},
		metrics: map[string]float64{"maxSize": 10},
	}
	cases := map[string]bool{
		"LinkedList : #addAt + #removeAt < 6 -> ArrayList":        true,
		"LinkedList : #addAt + #removeAt < 5 -> ArrayList":        false,
		"LinkedList : #addAt * #removeAt == 6 -> ArrayList":       true,
		"LinkedList : #removeAt - #addAt == 1 -> ArrayList":       true,
		"LinkedList : #removeAt / #addAt >= 1.5 -> ArrayList":     true,
		"LinkedList : #addAt != 2 -> ArrayList":                   false,
		"LinkedList : #addAt <= 2 && #removeAt >= 3 -> ArrayList": true,
		"LinkedList : #addAt > 5 || #removeAt > 2 -> ArrayList":   true,
		"LinkedList : !(#addAt > 5) -> ArrayList":                 true,
		"LinkedList : #get(int) / maxSize == 5 -> ArrayList":      true,
		"LinkedList : #add / #put > 0 -> ArrayList":               false, // guarded /0
	}
	for src, want := range cases {
		r := mustParseRule(t, src)
		_, got, err := EvalRule(r, p, nil)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalUnboundParameterError(t *testing.T) {
	r := mustParseRule(t, "HashMap : maxSize < Q -> ArrayMap")
	_, _, err := EvalRule(r, smallHashMapProfile(), nil)
	if err == nil {
		t.Fatal("unbound parameter must error")
	}
}

func TestEvalRuleSetOrdering(t *testing.T) {
	rs, err := Parse(`
HashMap : maxSize < 16 -> ArrayMap "first"
HashMap : maxSize < 100 -> LazyMap "second"
`)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Eval(rs, smallHashMapProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("matches = %d, want 2", len(ms))
	}
	if ms[0].Rule.Message != "first" {
		t.Fatalf("priority order lost: %q first", ms[0].Rule.Message)
	}
}

func TestEvalLiteralCapacity(t *testing.T) {
	r := mustParseRule(t, "HashMap : maxSize < 16 -> ArrayMap(8)")
	m, ok, err := EvalRule(r, smallHashMapProfile(), nil)
	if err != nil || !ok {
		t.Fatalf("should fire: %v", err)
	}
	if m.Capacity != 8 {
		t.Fatalf("capacity = %d", m.Capacity)
	}
}

func TestCheckCatchesBadNames(t *testing.T) {
	rs, err := Parse("HashMap : #frobnicate > 1 -> ArrayMap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Bind(rs, DefaultParams); err == nil {
		t.Fatal("unknown op not caught")
	}

	rs2, _ := Parse("HashMap : maxSize < Q -> ArrayMap")
	if _, err := Bind(rs2, DefaultParams); err == nil {
		t.Fatal("unbound parameter not caught")
	}
	if _, err := Bind(rs2, Params{"Q": 1}); err != nil {
		t.Fatalf("bound parameter rejected: %v", err)
	}

	rs3, _ := Parse("HashMap : @frobnicate > 1 -> ArrayMap")
	if _, err := Bind(rs3, DefaultParams); err == nil {
		t.Fatal("unknown @op not caught")
	}

	// Cross-ADT replacement from an abstract source is rejected.
	rs4, _ := Parse("Set : maxSize < 4 -> ArrayMap")
	if _, err := Bind(rs4, DefaultParams); err == nil {
		t.Fatal("Set -> ArrayMap not caught")
	}
	// ... but allowed from a concrete source (ArrayList -> LinkedHashSet
	// is a paper rule) and from Collection.
	rs5, _ := Parse("ArrayList : #contains > X && maxSize > Y -> LinkedHashSet")
	if _, err := Bind(rs5, DefaultParams); err != nil {
		t.Fatalf("paper rule rejected: %v", err)
	}
}

func TestParamsOfAndGatedMetrics(t *testing.T) {
	rs, err := Parse(`
ArrayList : #contains > X && maxSize > Y -> LinkedHashSet
HashMap : maxSize < Z && initialCapacity > 0 -> ArrayMap
`)
	if err != nil {
		t.Fatal(err)
	}
	params := ParamsOf(rs)
	if len(params) != 3 || params[0] != "X" || params[1] != "Y" || params[2] != "Z" {
		t.Fatalf("params = %v", params)
	}
	ms := rs.Rules[1].facts().gated
	if len(ms) != 2 || ms[0] != "initialCapacity" || ms[1] != "maxSize" {
		t.Fatalf("gated metrics = %v", ms)
	}
}

// A rule reading a heap-derived metric cannot be re-checked on an
// evidence window; stable(m) alone does not read m.
func TestReadsHeap(t *testing.T) {
	for src, want := range map[string]bool{
		"HashMap : maxSize < 8 -> ArrayMap":                        false,
		"HashMap : potential > 100 && maxSize < 8 -> ArrayMap":     true,
		"HashMap : stable(maxLive) < 2 && maxSize < 8 -> ArrayMap": false,
	} {
		if got := mustParseRule(t, src).ReadsHeap(); got != want {
			t.Errorf("%s: ReadsHeap = %v, want %v", src, got, want)
		}
	}
}

// Racing first evaluations of a rule nothing has bound derive its facts
// and all keep the same ones (run it under -race).
func TestFactsConcurrentFirstUse(t *testing.T) {
	r := mustParseRule(t, "HashMap : maxSize < 8 && stable(size) < 2 -> ArrayMap")
	got := make([]*ruleFacts, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = r.facts()
		}()
	}
	wg.Wait()
	for _, f := range got {
		if f != got[0] {
			t.Fatal("racing first calls kept different facts")
		}
	}
	if g := got[0].gated; len(g) != 1 || g[0] != "maxSize" {
		t.Fatalf("gated metrics = %v, want [maxSize]", g)
	}
}

func TestBuiltinRulesParseCheckAndFire(t *testing.T) {
	rs := Builtin()
	if len(rs.Rules) < 10 {
		t.Fatalf("builtin rules = %d, want the Table 2 set", len(rs.Rules))
	}
	// The TVLA scenario: small get-dominated HashMaps -> ArrayMap.
	ms, err := Eval(rs, smallHashMapProfile())
	if err != nil {
		t.Fatal(err)
	}
	var sawArrayMap bool
	for _, m := range ms {
		if m.Rule.Act.Kind == ActReplace && m.Rule.Act.Impl == spec.KindArrayMap {
			sawArrayMap = true
		}
	}
	if !sawArrayMap {
		t.Fatal("builtin rules did not suggest ArrayMap for a small HashMap context")
	}

	// Empty LinkedLists (the bloat scenario) -> LazyArrayList.
	bloat := &fakeProfile{
		kind:    spec.KindLinkedList,
		opMeans: map[string]float64{"iterator": 1},
		metrics: map[string]float64{"maxSize": 0},
	}
	ms2, err := Eval(rs, bloat)
	if err != nil {
		t.Fatal(err)
	}
	var sawLazy bool
	for _, m := range ms2 {
		if m.Rule.Act.Kind == ActReplace && m.Rule.Act.Impl == spec.KindLazyArrayList {
			sawLazy = true
		}
		if m.Rule.Act.Kind == ActReplace && m.Rule.Act.Impl == spec.KindArrayList {
			t.Fatal("empty LinkedList must not be suggested a plain ArrayList")
		}
	}
	if !sawLazy {
		t.Fatal("builtin rules did not suggest LazyArrayList for empty LinkedLists")
	}

	// A never-used collection -> avoid.
	unused := &fakeProfile{kind: spec.KindArrayList, metrics: map[string]float64{}}
	ms3, _ := Eval(rs, unused)
	var sawAvoid bool
	for _, m := range ms3 {
		if m.Rule.Act.Kind == ActAvoid {
			sawAvoid = true
		}
	}
	if !sawAvoid {
		t.Fatal("builtin rules did not flag an unused collection")
	}

	// A copy-only temporary -> eliminateCopies.
	temp := &fakeProfile{
		kind:    spec.KindArrayList,
		opMeans: map[string]float64{"copied": 3},
		metrics: map[string]float64{"maxSize": 0},
	}
	ms4, _ := Eval(rs, temp)
	var sawElim bool
	for _, m := range ms4 {
		if m.Rule.Act.Kind == ActEliminateCopies {
			sawElim = true
		}
	}
	if !sawElim {
		t.Fatal("builtin rules did not flag a copy-only temporary")
	}

	// Growth past initial capacity -> setCapacity(maxSize).
	growing := &fakeProfile{
		kind:    spec.KindArrayList,
		opMeans: map[string]float64{"add": 50},
		metrics: map[string]float64{"maxSize": 50, "initialCapacity": 10},
	}
	ms5, _ := Eval(rs, growing)
	var sawCap int64
	for _, m := range ms5 {
		if m.Rule.Act.Kind == ActSetCapacity {
			sawCap = m.Capacity
		}
	}
	if sawCap != 50 {
		t.Fatalf("setCapacity suggestion = %d, want 50", sawCap)
	}

	// Heavy contains on a large list -> LinkedHashSet (paper's first rule).
	containsHeavy := &fakeProfile{
		kind:    spec.KindArrayList,
		opMeans: map[string]float64{"contains": 500, "add": 100},
		metrics: map[string]float64{"maxSize": 100, "initialCapacity": 100},
	}
	ms6, _ := Eval(rs, containsHeavy)
	if len(ms6) == 0 || ms6[0].Rule.Act.Impl != spec.KindLinkedHashSet {
		t.Fatalf("contains-heavy list: first match should be LinkedHashSet, got %v", ms6)
	}

	// LinkedList used for random access -> ArrayList.
	randomAccess := &fakeProfile{
		kind:    spec.KindLinkedList,
		opMeans: map[string]float64{"get(int)": 1000, "add": 50},
		metrics: map[string]float64{"maxSize": 50},
	}
	ms7, _ := Eval(rs, randomAccess)
	if len(ms7) == 0 || ms7[0].Rule.Act.Impl != spec.KindArrayList {
		t.Fatalf("random-access LinkedList should suggest ArrayList first")
	}
}
