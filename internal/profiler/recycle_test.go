package profiler

import (
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/spec"
)

// OnDeath recycles instance records through a pool; a record handed out
// again must carry nothing over from its previous life.
func TestRecycledInstanceStartsClean(t *testing.T) {
	p := New()
	tab := alloctx.NewTable()
	ctx := tab.Static("recycle:1")

	in := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 0)
	in.Record(spec.Put)
	in.NoteSize(7)
	in.NoteEmptyIterator()
	p.OnDeath(in)

	in2 := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 0)
	p.OnDeath(in2)

	prof := p.SnapshotContext(ctx)
	if prof.Allocs != 2 {
		t.Fatalf("allocs = %d, want 2", prof.Allocs)
	}
	if prof.OpTotals[spec.Put] != 1 || prof.EmptyIterators != 1 {
		t.Fatalf("recycled record leaked state: put=%d emptyIters=%d", prof.OpTotals[spec.Put], prof.EmptyIterators)
	}
	if prof.MaxSizeMax != 7 || prof.MaxSizeAvg != 3.5 {
		t.Fatalf("size stats polluted: max=%v avg=%v", prof.MaxSizeMax, prof.MaxSizeAvg)
	}
}

// The batched path the collection wrappers take (Buffer, BufferSize and
// BufferEmptyIterator, drained by FlushPending) must agree with the per-op
// recording calls.
func TestBatchedRecordingMatchesDirect(t *testing.T) {
	p := New()
	tab := alloctx.NewTable()
	direct := p.OnAlloc(tab.Static("batch:direct"), spec.KindList, spec.KindArrayList, 0)
	batched := p.OnAlloc(tab.Static("batch:flush"), spec.KindList, spec.KindArrayList, 0)

	for i := 0; i < 5; i++ {
		direct.Record(spec.Add)
	}
	direct.NoteSize(3)
	direct.NoteSize(9)
	direct.NoteSize(4)
	direct.NoteEmptyIterator()
	direct.NoteEmptyIterator()

	for _, n := range []int32{1, 2, 3} {
		batched.Buffer(spec.Add)
		batched.BufferSize(n)
	}
	batched.FlushPending(3)
	for _, n := range []int32{9, 4} {
		batched.Buffer(spec.Add)
		batched.BufferSize(n)
	}
	batched.BufferEmptyIterator()
	batched.BufferEmptyIterator()
	batched.FlushPending(4)

	p.OnDeath(direct)
	p.OnDeath(batched)
	a := p.SnapshotContext(tab.Static("batch:direct"))
	b := p.SnapshotContext(tab.Static("batch:flush"))
	if a.OpTotals[spec.Add] != b.OpTotals[spec.Add] {
		t.Fatalf("op totals differ: %d vs %d", a.OpTotals[spec.Add], b.OpTotals[spec.Add])
	}
	if a.MaxSizeAvg != b.MaxSizeAvg || a.FinalSizeAvg != b.FinalSizeAvg {
		t.Fatalf("size stats differ: max %v/%v final %v/%v", a.MaxSizeAvg, b.MaxSizeAvg, a.FinalSizeAvg, b.FinalSizeAvg)
	}
	if a.EmptyIterators != b.EmptyIterators {
		t.Fatalf("empty iterators differ: %d vs %d", a.EmptyIterators, b.EmptyIterators)
	}
}

// Two profilers sharing one context table keep apart: each finds the
// context's slot in its own table, so neither counts the other's
// allocations.
func TestProfilersSharingATableStayApart(t *testing.T) {
	tab := alloctx.NewTable()
	ctx := tab.Static("shared:1")
	p1, p2 := New(), New()
	for i := 0; i < 3; i++ { // repeat so both create and find the slot
		i1 := p1.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 0)
		i2 := p2.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 0)
		p1.OnDeath(i1)
		p2.OnDeath(i2)
	}
	if a := p1.SnapshotContext(ctx).Allocs; a != 3 {
		t.Fatalf("p1 allocs = %d, want 3", a)
	}
	if a := p2.SnapshotContext(ctx).Allocs; a != 3 {
		t.Fatalf("p2 allocs = %d, want 3", a)
	}
	if p1.Contexts() != 1 || p2.Contexts() != 1 {
		t.Fatalf("contexts = %d/%d, want 1/1", p1.Contexts(), p2.Contexts())
	}
}
