package profiler

import (
	"bytes"
	"strings"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/heap"
	"chameleon/internal/rules"
	"chameleon/internal/spec"
)

func buildSnapshot(t *testing.T) []*Profile {
	t.Helper()
	tab := alloctx.NewTable()
	p := New()
	ctx := tab.Static("wire.Factory:3;wire.Main:9")
	for i := 0; i < 4; i++ {
		in := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 16)
		for j := 0; j <= i; j++ {
			in.Record(spec.Put)
			in.NoteSize(j + 1)
		}
		in.Record(spec.GetKey)
		in.NoteEmptyIterator()
		p.OnDeath(in)
	}
	p.ObserveCycle(&heap.CycleStats{PerContext: []heap.ContextCycle{
		{Key: ctx.Key(), Footprint: heap.Footprint{Live: 5000, Used: 3000, Core: 1000}, Objects: 4},
	}})
	return p.Snapshot()
}

func TestProfilesJSONRoundTrip(t *testing.T) {
	before := buildSnapshot(t)
	var buf bytes.Buffer
	if err := WriteProfiles(&buf, before); err != nil {
		t.Fatal(err)
	}
	after, recErrs, err := ReadProfilesReport(&buf)
	if err != nil || len(recErrs) > 0 {
		t.Fatalf("read: %v, damage %v", err, recErrs)
	}
	if len(after) != len(before) {
		t.Fatalf("profiles: %d != %d", len(after), len(before))
	}
	b, a := before[0], after[0]
	if a.Context.String() != b.Context.String() {
		t.Fatalf("context: %q != %q", a.Context.String(), b.Context.String())
	}
	if a.Declared != b.Declared || a.Impl != b.Impl || a.Allocs != b.Allocs {
		t.Fatalf("identity fields differ")
	}
	for op := spec.Op(0); op < spec.NumOps; op++ {
		if a.OpTotals[op] != b.OpTotals[op] {
			t.Fatalf("op %v total: %d != %d", op, a.OpTotals[op], b.OpTotals[op])
		}
		if diff := a.OpMean[op] - b.OpMean[op]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("op %v mean differs", op)
		}
		if diff := a.OpStdDev[op] - b.OpStdDev[op]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("op %v stddev differs", op)
		}
	}
	if a.MaxSizeAvg != b.MaxSizeAvg || a.MaxSizeStdDev != b.MaxSizeStdDev || a.MaxSizeMax != b.MaxSizeMax {
		t.Fatalf("size stats differ")
	}
	if a.MaxHeap != b.MaxHeap || a.TotHeap != b.TotHeap {
		t.Fatalf("heap stats differ")
	}
	if a.EmptyIterators != b.EmptyIterators || a.GCCycles != b.GCCycles {
		t.Fatalf("aux stats differ")
	}
	if a.Potential() != b.Potential() {
		t.Fatalf("potential differs")
	}
	// The size histogram must survive the trip: emptyFraction and sizeMode
	// read it, and a snapshot that drops it makes every context look
	// never-empty to offline rule evaluation.
	if got, want := a.SizeHist.Count(), b.SizeHist.Count(); got != want {
		t.Fatalf("size histogram count: %d != %d", got, want)
	}
	for _, v := range b.SizeHist.Values() {
		if a.SizeHist.CountOf(v) != b.SizeHist.CountOf(v) {
			t.Fatalf("size histogram bucket %d: %d != %d", v, a.SizeHist.CountOf(v), b.SizeHist.CountOf(v))
		}
	}
	if a.SizeHist.Fraction(0) != b.SizeHist.Fraction(0) {
		t.Fatalf("emptyFraction differs after round trip")
	}
}

// Deserialized profiles must drive the rule engine identically to live
// ones — the offline workflow's correctness condition.
func TestDeserializedProfilesDriveRules(t *testing.T) {
	before := buildSnapshot(t)
	var buf bytes.Buffer
	if err := WriteProfiles(&buf, before); err != nil {
		t.Fatal(err)
	}
	after, recErrs, err := ReadProfilesReport(&buf)
	if err != nil || len(recErrs) > 0 {
		t.Fatalf("read: %v, damage %v", err, recErrs)
	}
	msLive, err := rules.Eval(rules.Builtin(), before[0])
	if err != nil {
		t.Fatal(err)
	}
	msWire, err := rules.Eval(rules.Builtin(), after[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(msLive) != len(msWire) {
		t.Fatalf("rule matches differ: %d vs %d", len(msLive), len(msWire))
	}
	for i := range msLive {
		if rules.PrintRule(msLive[i].Rule) != rules.PrintRule(msWire[i].Rule) ||
			msLive[i].Capacity != msWire[i].Capacity {
			t.Fatalf("match %d differs", i)
		}
	}
}

// TestReadProfilesRejectsGarbage: records that checksum correctly but
// carry a vocabulary, value or framing no profiler run writes are rejected
// one by one, each with an error naming the cause.
func TestReadProfilesRejectsGarbage(t *testing.T) {
	cases := []struct{ name, body, cause string }{
		{"unknown kind", `{"context":"a:1","declared":"NoSuchKind","impl":"HashMap"}`, `unknown declared kind "NoSuchKind"`},
		{"unknown op", `{"context":"a:1","declared":"HashMap","impl":"HashMap","ops":{"bogusOp":1}}`, `unknown operation "bogusOp"`},
		{"non-numeric bucket", `{"context":"a:1","declared":"HashMap","impl":"HashMap","sizeHist":{"nope":1}}`, `bucket "nope" out of range`},
		{"negative count", `{"context":"a:1","declared":"HashMap","impl":"HashMap","sizeHist":{"1":-5}}`, `count for "1" out of range`},
		{"unknown field", `{"context":"a:1","declared":"HashMap","impl":"HashMap","bogus":1}`, `unknown field "bogus"`},
		{"bytes after the profile", `{"context":"a:1","declared":"HashMap","impl":"HashMap"} {}`, "after the profile"},
	}
	if loaded, recErrs, err := ReadProfilesReport(strings.NewReader(rawSnapshot(`{"context":"a:1","declared":"HashMap","impl":"HashMap"}`))); err != nil || len(recErrs) != 0 || len(loaded) != 1 {
		t.Fatalf("control record: loaded %d, damage %v, err %v", len(loaded), recErrs, err)
	}
	for _, c := range cases {
		loaded, recErrs, err := ReadProfilesReport(strings.NewReader(rawSnapshot(c.body)))
		if err != nil {
			t.Fatalf("%s: stream-level error %v, want per-record", c.name, err)
		}
		if len(loaded) != 0 || len(recErrs) != 1 || recErrs[0].Index != 0 || !strings.Contains(recErrs[0].Error(), c.cause) {
			t.Fatalf("%s: loaded %d, damage %v, want one record-0 error naming %q", c.name, len(loaded), recErrs, c.cause)
		}
	}
}

// Snapshots of a deterministic program must serialize byte-identically —
// the offline artifact is diffable and cacheable.
func TestWriteProfilesDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteProfiles(&a, buildMultiSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if err := WriteProfiles(&b, buildMultiSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("serialized snapshots differ across identical runs")
	}
	if !strings.Contains(a.String(), "wire.Factory") {
		t.Fatal("content missing")
	}
}

// buildMultiSnapshot builds a snapshot with several contexts so ordering
// matters.
func buildMultiSnapshot(t *testing.T) []*Profile {
	t.Helper()
	tab := alloctx.NewTable()
	p := New()
	for i, label := range []string{"wire.Factory:3;wire.Main:9", "wire.Other:5;wire.Main:2", "wire.Third:7;wire.Main:4"} {
		ctx := tab.Static(label)
		in := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 16)
		in.Record(spec.Put)
		in.NoteSize(1)
		p.OnDeath(in)
		p.ObserveCycle(&heap.CycleStats{PerContext: []heap.ContextCycle{
			{Key: ctx.Key(), Footprint: heap.Footprint{Live: int64(1000 * (i + 1)), Used: 500}, Objects: 1},
		}})
	}
	return p.Snapshot()
}
