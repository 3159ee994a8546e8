package profiler

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/heap"
	"chameleon/internal/spec"
)

func testCtx(t *testing.T, tab *alloctx.Table, label string) *alloctx.Context {
	t.Helper()
	return tab.Static(label)
}

func findProfile(t *testing.T, profiles []*Profile, label string) *Profile {
	t.Helper()
	for _, p := range profiles {
		if p.Context.String() == label {
			return p
		}
	}
	t.Fatalf("no profile for %q", label)
	return nil
}

func TestOnAllocOnDeathFolding(t *testing.T) {
	tab := alloctx.NewTable()
	p := New()
	ctx := testCtx(t, tab, "site:1")

	in1 := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 16)
	in1.Record(spec.Put)
	in1.NoteSize(1)
	in1.Record(spec.GetKey)
	in1.Record(spec.GetKey)
	in1.NoteSize(1)
	p.OnDeath(in1)

	in2 := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 16)
	in2.Record(spec.Put)
	in2.NoteSize(1)
	in2.Record(spec.Put)
	in2.NoteSize(2)
	in2.Record(spec.GetKey)
	in2.Record(spec.GetKey)
	in2.Record(spec.GetKey)
	in2.Record(spec.GetKey)
	p.OnDeath(in2)

	profiles := p.Snapshot()
	if len(profiles) != 1 {
		t.Fatalf("contexts = %d, want 1", len(profiles))
	}
	pr := profiles[0]
	if pr.Allocs != 2 || pr.Live != 0 {
		t.Fatalf("allocs=%d live=%d", pr.Allocs, pr.Live)
	}
	if pr.OpTotals[spec.Put] != 3 || pr.OpTotals[spec.GetKey] != 6 {
		t.Fatalf("op totals wrong: put=%d get=%d", pr.OpTotals[spec.Put], pr.OpTotals[spec.GetKey])
	}
	if pr.OpMean[spec.Put] != 1.5 {
		t.Fatalf("put mean = %v, want 1.5", pr.OpMean[spec.Put])
	}
	if pr.OpMean[spec.GetKey] != 3 {
		t.Fatalf("get mean = %v, want 3", pr.OpMean[spec.GetKey])
	}
	if pr.OpStdDev[spec.GetKey] != 1 {
		t.Fatalf("get stddev = %v, want 1 (population)", pr.OpStdDev[spec.GetKey])
	}
	if pr.MaxSizeAvg != 1.5 || pr.MaxSizeMax != 2 {
		t.Fatalf("maxsize avg=%v max=%v", pr.MaxSizeAvg, pr.MaxSizeMax)
	}
	if pr.InitialCapAvg != 16 {
		t.Fatalf("initialCap avg = %v", pr.InitialCapAvg)
	}
	if pr.SizeHist.CountOf(1) != 1 || pr.SizeHist.CountOf(2) != 1 {
		t.Fatalf("size histogram wrong")
	}
	if got := pr.AllOpsTotal(); got != 9 {
		t.Fatalf("allOps total = %d, want 9", got)
	}
	if got := pr.AllOpsMean(); got != 4.5 {
		t.Fatalf("allOps mean = %v, want 4.5", got)
	}
}

func TestDoubleDeathIsNoop(t *testing.T) {
	tab := alloctx.NewTable()
	p := New()
	in := p.OnAlloc(testCtx(t, tab, "x:1"), spec.KindArrayList, spec.KindArrayList, 10)
	in.Record(spec.Add)
	p.OnDeath(in)
	p.OnDeath(in)
	pr := p.Snapshot()[0]
	if pr.OpTotals[spec.Add] != 1 {
		t.Fatalf("double death double counted: %d", pr.OpTotals[spec.Add])
	}
	if p.LiveInstances() != 0 {
		t.Fatalf("live = %d", p.LiveInstances())
	}
}

func TestNilInstanceMethodsSafe(t *testing.T) {
	var in *Instance
	in.Record(spec.Add)
	in.NoteSize(3)
	in.NoteEmptyIterator()
	p := New()
	p.OnDeath(nil)
}

func TestSnapshotIncludesLiveWithoutPerturbing(t *testing.T) {
	tab := alloctx.NewTable()
	p := New()
	ctx := testCtx(t, tab, "live:1")
	in := p.OnAlloc(ctx, spec.KindArrayList, spec.KindArrayList, 10)
	in.Record(spec.Add)
	in.NoteSize(1)

	s1 := p.Snapshot()
	pr := findProfile(t, s1, "live:1")
	if pr.Live != 1 || pr.OpTotals[spec.Add] != 1 {
		t.Fatalf("snapshot missed live instance: live=%d add=%d", pr.Live, pr.OpTotals[spec.Add])
	}

	// The live instance keeps accumulating; a second snapshot must not
	// double count the first fold.
	in.Record(spec.Add)
	in.NoteSize(2)
	s2 := p.Snapshot()
	pr2 := findProfile(t, s2, "live:1")
	if pr2.OpTotals[spec.Add] != 2 {
		t.Fatalf("second snapshot add total = %d, want 2", pr2.OpTotals[spec.Add])
	}
	if pr2.MaxSizeAvg != 2 {
		t.Fatalf("maxSize avg = %v, want 2", pr2.MaxSizeAvg)
	}

	p.OnDeath(in)
	s3 := p.Snapshot()
	pr3 := findProfile(t, s3, "live:1")
	if pr3.OpTotals[spec.Add] != 2 || pr3.Live != 0 {
		t.Fatalf("post-death snapshot wrong: add=%d live=%d", pr3.OpTotals[spec.Add], pr3.Live)
	}
}

func TestObserveCycleAggregatesHeap(t *testing.T) {
	tab := alloctx.NewTable()
	p := New()
	ctx := testCtx(t, tab, "heap:1")
	in := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 16)

	cycle := func(live, used, core, objs int64) *heap.CycleStats {
		return &heap.CycleStats{PerContext: []heap.ContextCycle{
			{Slot: ctx.Slot(), Key: ctx.Key(), Footprint: heap.Footprint{Live: live, Used: used, Core: core}, Objects: objs},
		}}
	}
	p.ObserveCycle(cycle(100, 40, 20, 2))
	p.ObserveCycle(cycle(300, 90, 50, 5))
	p.ObserveCycle(cycle(200, 100, 60, 3))

	pr := findProfile(t, p.Snapshot(), "heap:1")
	if pr.TotHeap != (heap.Footprint{Live: 600, Used: 230, Core: 130}) {
		t.Fatalf("tot heap = %+v", pr.TotHeap)
	}
	if pr.MaxHeap != (heap.Footprint{Live: 300, Used: 100, Core: 60}) {
		t.Fatalf("max heap = %+v (component-wise maxima)", pr.MaxHeap)
	}
	if pr.MaxObjs != 5 || pr.TotObjs != 10 || pr.GCCycles != 3 {
		t.Fatalf("objs max=%d tot=%d cycles=%d", pr.MaxObjs, pr.TotObjs, pr.GCCycles)
	}
	if pr.Potential() != 200 {
		t.Fatalf("potential = %d, want maxLive-maxUsed = 200", pr.Potential())
	}
	p.OnDeath(in)
}

func TestObserveCycleUnknownContext(t *testing.T) {
	p := New()
	p.ObserveCycle(&heap.CycleStats{PerContext: []heap.ContextCycle{
		{Slot: 7, Key: 12345, Footprint: heap.Footprint{Live: 64}, Objects: 1},
	}})
	if p.Contexts() != 1 {
		t.Fatalf("heap-only context not created")
	}
}

func TestMetricVocabulary(t *testing.T) {
	tab := alloctx.NewTable()
	p := New()
	ctx := testCtx(t, tab, "m:1")
	in := p.OnAlloc(ctx, spec.KindArrayList, spec.KindArrayList, 7)
	in.Record(spec.Add)
	in.NoteSize(1)
	in.Record(spec.Contains)
	in.NoteEmptyIterator()
	p.OnDeath(in)
	p.ObserveCycle(&heap.CycleStats{PerContext: []heap.ContextCycle{
		{Slot: ctx.Slot(), Key: ctx.Key(), Footprint: heap.Footprint{Live: 500, Used: 300, Core: 100}, Objects: 1},
	}})
	pr := findProfile(t, p.Snapshot(), "m:1")

	want := map[string]float64{
		"size":            1,
		"maxSize":         1,
		"initialCapacity": 7,
		"maxLive":         500,
		"totLive":         500,
		"maxUsed":         300,
		"totUsed":         300,
		"maxCore":         100,
		"totCore":         100,
		"allocs":          1,
		"liveObjects":     0,
		"maxObjects":      1,
		"totObjects":      1,
		"potential":       200,
		"emptyIterators":  1,
		"gcCycles":        1,
	}
	for name, val := range want {
		got, ok := pr.Metric(name)
		if !ok {
			t.Errorf("Metric(%q) unresolved", name)
			continue
		}
		if math.Abs(got-val) > 1e-9 {
			t.Errorf("Metric(%q) = %v, want %v", name, got, val)
		}
	}
	if _, ok := pr.Metric("nonsense"); ok {
		t.Errorf("unknown metric resolved")
	}

	if v, ok := pr.OpMeanByName("add"); !ok || v != 1 {
		t.Errorf("OpMeanByName(add) = %v,%v", v, ok)
	}
	if v, ok := pr.OpMeanByName("allOps"); !ok || v != 2 {
		t.Errorf("OpMeanByName(allOps) = %v,%v, want 2", v, ok)
	}
	if _, ok := pr.OpMeanByName("bogus"); ok {
		t.Errorf("unknown op mean resolved")
	}
	if v, ok := pr.OpStdDevByName("add"); !ok || v != 0 {
		t.Errorf("OpStdDevByName(add) = %v,%v", v, ok)
	}
	if _, ok := pr.OpStdDevByName("allOps"); ok {
		t.Errorf("@allOps should not resolve")
	}
	if pr.Stability("maxSize") != 0 {
		t.Errorf("single-instance maxSize should be perfectly stable")
	}
	if pr.Stability("add") != 0 {
		t.Errorf("op stability unrestricted by default (paper §3.3.1)")
	}
	if pr.SrcKind() != spec.KindArrayList {
		t.Errorf("SrcKind = %v", pr.SrcKind())
	}
}

func TestRankByPotential(t *testing.T) {
	tab := alloctx.NewTable()
	p := New()
	mk := func(label string, live, used int64) {
		ctx := testCtx(t, tab, label)
		in := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 16)
		p.OnDeath(in)
		p.ObserveCycle(&heap.CycleStats{PerContext: []heap.ContextCycle{
			{Slot: ctx.Slot(), Key: ctx.Key(), Footprint: heap.Footprint{Live: live, Used: used}, Objects: 1},
		}})
	}
	mk("low:1", 100, 90)
	mk("high:1", 1000, 100)
	mk("mid:1", 500, 300)

	ranked := Rank(p.Snapshot())
	order := []string{"high:1", "mid:1", "low:1"}
	for i, want := range order {
		if got := ranked[i].Context.String(); got != want {
			t.Fatalf("rank[%d] = %s, want %s", i, got, want)
		}
	}
}

func TestOpDistributionAndString(t *testing.T) {
	tab := alloctx.NewTable()
	p := New()
	in := p.OnAlloc(testCtx(t, tab, "d:1"), spec.KindHashMap, spec.KindHashMap, 16)
	for i := 0; i < 9; i++ {
		in.Record(spec.GetKey)
	}
	in.Record(spec.Put)
	p.OnDeath(in)
	pr := p.Snapshot()[0]
	dist := pr.OpDistribution()
	if !strings.HasPrefix(dist, "get(Object)=9 (90%)") {
		t.Fatalf("distribution = %q", dist)
	}
	if !strings.Contains(dist, "put=1 (10%)") {
		t.Fatalf("distribution = %q", dist)
	}
	if !strings.Contains(pr.String(), "d:1") {
		t.Fatalf("String = %q", pr.String())
	}
}

func TestProfileJSON(t *testing.T) {
	tab := alloctx.NewTable()
	p := New()
	in := p.OnAlloc(testCtx(t, tab, "j:1"), spec.KindHashMap, spec.KindArrayMap, 4)
	in.Record(spec.Put)
	in.NoteSize(1)
	p.OnDeath(in)
	pr := p.Snapshot()[0]
	raw, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["context"] != "j:1" || decoded["declared"] != "HashMap" || decoded["impl"] != "ArrayMap" {
		t.Fatalf("json = %s", raw)
	}
	ops := decoded["ops"].(map[string]any)
	if ops["put"] != float64(1) {
		t.Fatalf("ops json = %v", ops)
	}
	// The report JSON is the snapshot record shape, histogram included.
	if hist, ok := decoded["sizeHist"].(map[string]any); !ok || hist["1"] != float64(1) {
		t.Fatalf("sizeHist json = %v, want {\"1\": 1}", decoded["sizeHist"])
	}
}

func TestSnapshotContextDirect(t *testing.T) {
	tab := alloctx.NewTable()
	p := New()
	ctx := testCtx(t, tab, "single:1")
	in := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 16)
	in.Record(spec.Put)
	in.NoteSize(1)
	// Live instance folded into the single-context snapshot.
	pr := p.SnapshotContext(ctx)
	if pr == nil || pr.OpTotals[spec.Put] != 1 || pr.Live != 1 {
		t.Fatalf("snapshot context: %+v", pr)
	}
	// Unknown context.
	if p.SnapshotContext(tab.Static("unknown:1")) != nil {
		t.Fatal("unknown context returned a profile")
	}
	// The live instance keeps accumulating; the original is unperturbed.
	in.Record(spec.Put)
	pr2 := p.SnapshotContext(ctx)
	if pr2.OpTotals[spec.Put] != 2 {
		t.Fatalf("second snapshot put = %d", pr2.OpTotals[spec.Put])
	}
	p.OnDeath(in)
}

func TestRankTieBreaks(t *testing.T) {
	tab := alloctx.NewTable()
	p := New()
	mk := func(label string, ops int) {
		ctx := testCtx(t, tab, label)
		in := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 16)
		for i := 0; i < ops; i++ {
			in.Record(spec.Put)
		}
		p.OnDeath(in)
	}
	mk("tie-a:1", 5)
	mk("tie-b:1", 50) // equal potential (zero), more ops: ranks first
	ranked := Rank(p.Snapshot())
	if ranked[0].Context.String() != "tie-b:1" {
		t.Fatalf("tie break by op volume failed: %s first", ranked[0].Context)
	}
	// Equal everything: deterministic by key.
	mk("tie-c:1", 5)
	r1 := Rank(p.Snapshot())
	r2 := Rank(p.Snapshot())
	for i := range r1 {
		if r1[i].Context.String() != r2[i].Context.String() {
			t.Fatal("ranking not deterministic")
		}
	}
}
