package fleet

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"chameleon/internal/advisor"
	"chameleon/internal/alloctx"
	"chameleon/internal/heap"
	"chameleon/internal/profiler"
	"chameleon/internal/spec"
	"chameleon/internal/stats"
)

// buildSnapshot exercises the real profiler so fleet tests merge the same
// shapes production snapshots carry. seed skews op counts and sizes so
// distinct "fleet members" genuinely differ.
func buildSnapshot(t testing.TB, seed, sites int) []*profiler.Profile {
	t.Helper()
	tab := alloctx.NewTable()
	p := profiler.New()
	for i := 0; i < sites; i++ {
		ctx := tab.Static(fmt.Sprintf("fleet.Site%d:1;fleet.Main:9", i))
		for k := 0; k < 4+seed; k++ {
			in := p.OnAlloc(ctx, spec.KindArrayList, spec.KindArrayList, 0)
			for j := 0; j <= i+seed+k; j++ {
				in.Record(spec.Add)
				in.NoteSize(j + 1)
			}
			for j := 0; j < (seed+1)*k; j++ {
				in.Record(spec.GetIndex)
			}
			p.OnDeath(in)
		}
	}
	profiles := p.Snapshot()
	if len(profiles) != sites {
		t.Fatalf("built %d profiles, want %d", len(profiles), sites)
	}
	return profiles
}

func snapshotBytes(t testing.TB, profiles []*profiler.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profiler.WriteProfiles(&buf, profiles); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sourceOf round-trips profiles through the v3 wire format so merges see
// serialized moments, exactly as chameleon-merge does.
func sourceOf(t testing.TB, name string, profiles []*profiler.Profile) Source {
	t.Helper()
	s, err := ReadSource(name, bytes.NewReader(snapshotBytes(t, profiles)))
	if err != nil {
		t.Fatalf("source %s: %v", name, err)
	}
	return s
}

func relClose(a, b, eps float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= eps*math.Max(m, 1)
}

// diffProfiles reports the first field where two profiles disagree
// (floats compared to eps relative), or "".
func diffProfiles(a, b *profiler.Profile, eps float64) string {
	type f64 struct {
		name string
		a, b float64
	}
	type i64 struct {
		name string
		a, b int64
	}
	if a.Context.String() != b.Context.String() {
		return fmt.Sprintf("context %q vs %q", a.Context, b.Context)
	}
	if a.Declared != b.Declared || a.Impl != b.Impl {
		return fmt.Sprintf("kinds %s/%s vs %s/%s", a.Declared, a.Impl, b.Declared, b.Impl)
	}
	ints := []i64{
		{"allocs", a.Allocs, b.Allocs}, {"live", a.Live, b.Live},
		{"evidence", a.Evidence, b.Evidence},
		{"emptyIterators", a.EmptyIterators, b.EmptyIterators},
		{"totObjs", a.TotObjs, b.TotObjs}, {"maxObjs", a.MaxObjs, b.MaxObjs},
		{"gcCycles", a.GCCycles, b.GCCycles},
		{"maxHeapLive", a.MaxHeap.Live, b.MaxHeap.Live},
		{"maxHeapUsed", a.MaxHeap.Used, b.MaxHeap.Used},
		{"totHeapLive", a.TotHeap.Live, b.TotHeap.Live},
		{"totHeapUsed", a.TotHeap.Used, b.TotHeap.Used},
	}
	for _, c := range ints {
		if c.a != c.b {
			return fmt.Sprintf("%s %d vs %d", c.name, c.a, c.b)
		}
	}
	for op := spec.Op(0); op < spec.NumOps; op++ {
		if a.OpTotals[op] != b.OpTotals[op] {
			return fmt.Sprintf("opTotals[%s] %d vs %d", op.String(), a.OpTotals[op], b.OpTotals[op])
		}
	}
	floats := []f64{
		{"maxSizeAvg", a.MaxSizeAvg, b.MaxSizeAvg},
		{"maxSizeStdDev", a.MaxSizeStdDev, b.MaxSizeStdDev},
		{"maxSizeMax", a.MaxSizeMax, b.MaxSizeMax},
		{"finalSizeAvg", a.FinalSizeAvg, b.FinalSizeAvg},
		{"initialCapAvg", a.InitialCapAvg, b.InitialCapAvg},
	}
	for op := spec.Op(0); op < spec.NumOps; op++ {
		floats = append(floats,
			f64{fmt.Sprintf("opMean[%s]", op.String()), a.OpMean[op], b.OpMean[op]},
			f64{fmt.Sprintf("opStdDev[%s]", op.String()), a.OpStdDev[op], b.OpStdDev[op]})
	}
	for _, c := range floats {
		if !relClose(c.a, c.b, eps) {
			return fmt.Sprintf("%s %v vs %v", c.name, c.a, c.b)
		}
	}
	if !sameHistogram(a.SizeHist, b.SizeHist) {
		return "size histograms differ"
	}
	return ""
}

func byContext(profiles []*profiler.Profile) map[string]*profiler.Profile {
	m := make(map[string]*profiler.Profile, len(profiles))
	for _, p := range profiles {
		m[p.Context.String()] = p
	}
	return m
}

func sameResults(t *testing.T, a, b *Result, eps float64) {
	t.Helper()
	if len(a.Profiles) != len(b.Profiles) {
		t.Fatalf("context counts differ: %d vs %d", len(a.Profiles), len(b.Profiles))
	}
	bm := byContext(b.Profiles)
	for _, pa := range a.Profiles {
		pb := bm[pa.Context.String()]
		if pb == nil {
			t.Fatalf("context %s missing from second merge", pa.Context)
		}
		if d := diffProfiles(pa, pb, eps); d != "" {
			t.Fatalf("context %s: %s", pa.Context, d)
		}
	}
}

// TestMergeIdempotent: merging K copies of the same snapshot — an
// at-least-once delivery retried K times — equals the snapshot itself,
// exactly, and the duplicates are accounted.
func TestMergeIdempotent(t *testing.T) {
	profiles := buildSnapshot(t, 1, 4)
	single := sourceOf(t, "node-a.json", profiles)
	var copies []Source
	for i := 0; i < 4; i++ {
		copies = append(copies, sourceOf(t, fmt.Sprintf("node-%d.json", i), profiles))
	}
	merged := Merge(copies, Options{})
	want := Merge([]Source{single}, Options{})
	sameResults(t, merged, want, 0) // exact, not approximate
	if merged.Report.Duplicates != 3*len(profiles) {
		t.Fatalf("duplicates = %d, want %d", merged.Report.Duplicates, 3*len(profiles))
	}
	for _, ann := range merged.Annotations {
		if ann.Conflicted {
			t.Fatalf("identical copies flagged conflicted: %+v", ann)
		}
	}
}

// TestMergeEmptyIdentity: merge(s, empty) == s, and a merge of one source
// copies it through exactly.
func TestMergeEmptyIdentity(t *testing.T) {
	profiles := buildSnapshot(t, 2, 3)
	s := sourceOf(t, "node-a.json", profiles)
	empty := sourceOf(t, "node-empty.json", nil)
	merged := Merge([]Source{s, empty}, Options{})
	orig := byContext(s.Profiles)
	if len(merged.Profiles) != len(s.Profiles) {
		t.Fatalf("got %d contexts, want %d", len(merged.Profiles), len(s.Profiles))
	}
	for _, p := range merged.Profiles {
		if d := diffProfiles(p, orig[p.Context.String()], 0); d != "" {
			t.Fatalf("context %s not copied through exactly: %s", p.Context, d)
		}
	}
	if merged.Report.FailedSources != 1 {
		t.Fatalf("empty source not counted as failed: %+v", merged.Report)
	}
}

// TestMergeCommutative: source order does not change the fleet profile
// (up to float round-off in the pooled moments).
func TestMergeCommutative(t *testing.T) {
	a := sourceOf(t, "a.json", buildSnapshot(t, 0, 4))
	b := sourceOf(t, "b.json", buildSnapshot(t, 3, 4))
	sameResults(t, Merge([]Source{a, b}, Options{}), Merge([]Source{b, a}, Options{}), 1e-9)
}

// TestMergeAssociative: merging an already-merged aggregate with a third
// source equals merging all three at once — hierarchical rollups
// (per-rack, then per-fleet) are sound. The intermediate aggregate goes
// through the wire format like any other snapshot.
func TestMergeAssociative(t *testing.T) {
	s1 := sourceOf(t, "s1.json", buildSnapshot(t, 0, 4))
	s2 := sourceOf(t, "s2.json", buildSnapshot(t, 2, 4))
	s3 := sourceOf(t, "s3.json", buildSnapshot(t, 4, 4))

	all := Merge([]Source{s1, s2, s3}, Options{})
	m12 := Merge([]Source{s1, s2}, Options{})
	rolled := Merge([]Source{sourceOf(t, "rack-12.json", m12.Profiles), s3}, Options{})
	sameResults(t, rolled, all, 1e-9)
}

// TestMergeSumsDistinctShards: distinct contributions add; overlapping
// contexts pool and disjoint ones union.
func TestMergeSumsDistinctShards(t *testing.T) {
	pa := buildSnapshot(t, 0, 3)
	pb := buildSnapshot(t, 1, 5) // sites 0..2 overlap, 3..4 are b-only
	merged := Merge([]Source{sourceOf(t, "a.json", pa), sourceOf(t, "b.json", pb)}, Options{})
	if len(merged.Profiles) != 5 {
		t.Fatalf("got %d contexts, want 5", len(merged.Profiles))
	}
	am, bm, mm := byContext(pa), byContext(pb), byContext(merged.Profiles)
	for ctx, p := range mm {
		wantAllocs, wantEvidence := int64(0), int64(0)
		if a := am[ctx]; a != nil {
			wantAllocs += a.Allocs
			wantEvidence += a.Evidence
		}
		if b := bm[ctx]; b != nil {
			wantAllocs += b.Allocs
			wantEvidence += b.Evidence
		}
		if p.Allocs != wantAllocs || p.Evidence != wantEvidence {
			t.Fatalf("%s: allocs/evidence %d/%d, want %d/%d", ctx, p.Allocs, p.Evidence, wantAllocs, wantEvidence)
		}
		ann := merged.Annotations[ctx]
		if am[ctx] != nil && bm[ctx] != nil && ann.Sources != 2 {
			t.Fatalf("%s: annotation sources = %d, want 2", ctx, ann.Sources)
		}
	}
}

// skewProfile hand-builds one context view with a chosen op mix and size
// mode; both sources declare the same kind so only behaviour diverges.
func skewProfile(tab *alloctx.Table, ctx string, adds, gets int64, mode int64) *profiler.Profile {
	h := stats.NewHistogram()
	h.AddN(mode, 64)
	p := &profiler.Profile{
		Context:  tab.Static(ctx),
		Declared: spec.KindArrayList,
		Impl:     spec.KindArrayList,
		Allocs:   64, Evidence: 64,
		MaxSizeAvg: float64(mode), MaxSizeMax: float64(mode),
		FinalSizeAvg: float64(mode),
		SizeHist:     h,
		MaxHeap:      heap.Footprint{Live: 4096, Used: 1024},
		TotHeap:      heap.Footprint{Live: 4096, Used: 1024},
		TotObjs:      64, MaxObjs: 64, GCCycles: 4,
	}
	p.OpTotals[spec.Add] = adds
	p.OpTotals[spec.GetIndex] = gets
	if adds > 0 {
		p.OpMean[spec.Add] = float64(adds) / 64
	}
	if gets > 0 {
		p.OpMean[spec.GetIndex] = float64(gets) / 64
	}
	return p
}

// TestSkewFlagsConflict: twin sources whose size modes diverge wildly get
// the context flagged conflicted, with the outlier named; agreeing twins
// stay confident.
func TestSkewFlagsConflict(t *testing.T) {
	tab := alloctx.NewTable()
	ctx := "svc.Handler:10;svc.Main:3"
	a := Source{Name: "a.json", Profiles: []*profiler.Profile{skewProfile(tab, ctx, 640, 0, 1)}}
	b := Source{Name: "b.json", Profiles: []*profiler.Profile{skewProfile(tab, ctx, 640, 0, 64)}}
	merged := Merge([]Source{a, b}, Options{})
	ann := merged.Annotations[ctx]
	if !ann.Conflicted || ann.Confidence >= DefaultMinConfidence {
		t.Fatalf("divergent size modes not flagged: %+v", ann)
	}
	if ann.Outlier != "b.json" {
		t.Fatalf("outlier = %q, want b.json (mode 64 vs pooled 1)", ann.Outlier)
	}
	if len(merged.Report.Conflicted) != 1 || merged.Report.Conflicted[0] != ctx {
		t.Fatalf("report conflicts = %v", merged.Report.Conflicted)
	}

	// Agreeing twins: high confidence, no flag.
	c := Source{Name: "c.json", Profiles: []*profiler.Profile{skewProfile(tab, ctx, 640, 0, 8)}}
	d := Source{Name: "d.json", Profiles: []*profiler.Profile{skewProfile(tab, ctx, 640, 0, 8)}}
	// Distinct Allocs so the twins are shards, not duplicates.
	d.Profiles[0].Allocs = 65
	if ann := Merge([]Source{c, d}, Options{}).Annotations[ctx]; ann.Conflicted {
		t.Fatalf("agreeing twins flagged conflicted: %+v", ann)
	}
}

// TestOpMixConflict: same sizes, disjoint op mixes — flagged through the
// op-distribution distance.
func TestOpMixConflict(t *testing.T) {
	tab := alloctx.NewTable()
	ctx := "svc.Cache:5;svc.Main:3"
	a := Source{Name: "adds.json", Profiles: []*profiler.Profile{skewProfile(tab, ctx, 640, 0, 4)}}
	b := Source{Name: "gets.json", Profiles: []*profiler.Profile{skewProfile(tab, ctx, 0, 640, 4)}}
	ann := Merge([]Source{a, b}, Options{}).Annotations[ctx]
	if !ann.Conflicted {
		t.Fatalf("disjoint op mixes not flagged: %+v", ann)
	}
	if !strings.Contains(ann.Reason, "op-mix") {
		t.Fatalf("reason %q does not name op-mix", ann.Reason)
	}
}

// TestDeclaredMismatchConflict: fleet members running different code at
// the same context is a zero-confidence conflict.
func TestDeclaredMismatchConflict(t *testing.T) {
	tab := alloctx.NewTable()
	ctx := "svc.Registry:7;svc.Main:3"
	a := Source{Name: "old.json", Profiles: []*profiler.Profile{skewProfile(tab, ctx, 64, 64, 4)}}
	bp := skewProfile(tab, ctx, 64, 64, 4)
	bp.Declared = spec.KindLinkedList
	bp.Impl = spec.KindLinkedList
	b := Source{Name: "new.json", Profiles: []*profiler.Profile{bp}}
	ann := Merge([]Source{a, b}, Options{}).Annotations[ctx]
	if !ann.Conflicted || ann.Confidence != 0 {
		t.Fatalf("declared-kind mismatch not a hard conflict: %+v", ann)
	}
}

// TestConflictSurfacedInAdviceAndExcludedFromPlan: the acceptance path —
// a conflicted context's suggestion appears in the advisor report carrying
// the confidence annotation, and the plan refuses to compile it.
func TestConflictSurfacedInAdviceAndExcludedFromPlan(t *testing.T) {
	tab := alloctx.NewTable()
	ctx := "svc.Single:9;svc.Main:3"
	// Both shards look like singletons (rule matches the merged stats) but
	// their op mixes disagree hard enough to kill confidence.
	a := Source{Name: "adds.json", Profiles: []*profiler.Profile{skewProfile(tab, ctx, 640, 0, 1)}}
	b := Source{Name: "gets.json", Profiles: []*profiler.Profile{skewProfile(tab, ctx, 0, 640, 1)}}
	merged := Merge([]Source{a, b}, Options{})
	rep, err := merged.Advise(advisor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var found *advisor.Suggestion
	for i := range rep.Suggestions {
		if rep.Suggestions[i].Profile.Context.String() == ctx {
			found = &rep.Suggestions[i]
		}
	}
	if found == nil {
		t.Fatalf("no suggestion for %s; report:\n%s", ctx, rep.Format())
	}
	if found.Annotation == nil || !found.Annotation.Conflicted {
		t.Fatalf("suggestion lacks conflicted annotation: %+v", found.Annotation)
	}
	if !strings.Contains(rep.Format(), "CONFLICTED") {
		t.Fatalf("formatted report does not surface the conflict:\n%s", rep.Format())
	}
	if plan := advisor.NewPlan(rep); plan.Len() != 0 {
		t.Fatalf("conflicted context compiled into plan:\n%s", plan)
	}

	// Same shards agreeing -> the plan does compile the decision.
	b2 := Source{Name: "adds2.json", Profiles: []*profiler.Profile{skewProfile(tab, ctx, 640, 0, 1)}}
	b2.Profiles[0].Allocs = 65 // shard, not duplicate
	rep2, err := Merge([]Source{a, b2}, Options{}).Advise(advisor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan := advisor.NewPlan(rep2); plan.Len() == 0 {
		t.Fatalf("agreeing shards produced no plan:\n%s", rep2.Format())
	}
}

// TestMergeDegradesPerRecord: a torn source contributes its valid prefix;
// a dead source contributes nothing; both are fully accounted.
func TestMergeDegradesPerRecord(t *testing.T) {
	good := snapshotBytes(t, buildSnapshot(t, 1, 5))
	tornWhole := snapshotBytes(t, buildSnapshot(t, 2, 5)) // a distinct shard, then torn
	torn := tornWhole[:len(tornWhole)*2/3]
	garbage := []byte("not a snapshot at all")

	sGood, _ := ReadSource("good.json", bytes.NewReader(good))
	sTorn, _ := ReadSource("torn.json", bytes.NewReader(torn))
	sDead, _ := ReadSource("dead.json", bytes.NewReader(garbage))
	if len(sTorn.Profiles) == 0 || len(sTorn.Profiles) >= 5 {
		t.Fatalf("torn source loaded %d records, want a proper prefix", len(sTorn.Profiles))
	}
	if sDead.Err == "" {
		t.Fatal("garbage source read without a stream-level error")
	}

	merged := Merge([]Source{sGood, sTorn, sDead}, Options{})
	if merged.Report.Contexts != 5 {
		t.Fatalf("contexts = %d, want 5", merged.Report.Contexts)
	}
	if merged.Report.FailedSources != 1 {
		t.Fatalf("failedSources = %d, want 1", merged.Report.FailedSources)
	}
	if merged.Report.DroppedRecords == 0 {
		t.Fatal("torn records not counted as dropped")
	}
	var tornRep *SourceReport
	for i := range merged.Report.Sources {
		if merged.Report.Sources[i].Name == "torn.json" {
			tornRep = &merged.Report.Sources[i]
		}
	}
	if tornRep == nil || tornRep.Records == 0 || tornRep.Dropped == 0 {
		t.Fatalf("torn source accounting wrong: %+v", tornRep)
	}
}
