package collections

import (
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/heap"
	"chameleon/internal/profiler"
	"chameleon/internal/spec"
)

// profiledRuntime wires a full runtime: simulated heap, profiler observing
// GC cycles, static context capture.
func profiledRuntime(t *testing.T) (*Runtime, *profiler.Profiler, *heap.Heap) {
	t.Helper()
	prof := profiler.New()
	h := heap.New(heap.Config{GCThreshold: 1 << 30, Observer: prof, KeepSnapshots: true, KeepContexts: true})
	rt := NewRuntime(Config{
		Heap:     h,
		Profiler: prof,
		Contexts: alloctx.NewTable(),
		Mode:     alloctx.Static,
	})
	return rt, prof, h
}

func findByContext(t *testing.T, profiles []*profiler.Profile, label string) *profiler.Profile {
	t.Helper()
	for _, p := range profiles {
		if p.Context.String() == label {
			return p
		}
	}
	t.Fatalf("no profile for context %q", label)
	return nil
}

func TestPlainRuntimeNoProfiling(t *testing.T) {
	l := NewArrayList[int](Plain())
	l.Add(1)
	l.Free()
	var nilRT *Runtime
	l2 := NewArrayList[int](nilRT)
	l2.Add(2)
	if l2.Get(0) != 2 {
		t.Fatalf("nil runtime list broken")
	}
	l2.Free()
}

func TestStaticContextProfiling(t *testing.T) {
	rt, prof, h := profiledRuntime(t)
	m := NewHashMap[string, int](rt, At("app.Factory:31;app.Caller:50"), Cap(16))
	m.Put("a", 1)
	m.Get("a")
	m.Get("b")
	h.GC()
	m.Free()

	profiles := prof.Snapshot()
	p := findByContext(t, profiles, "app.Factory:31;app.Caller:50")
	if p.Declared != spec.KindHashMap || p.Impl != spec.KindHashMap {
		t.Fatalf("kinds: declared=%v impl=%v", p.Declared, p.Impl)
	}
	if p.OpTotals[spec.Put] != 1 || p.OpTotals[spec.GetKey] != 2 {
		t.Fatalf("ops: put=%d get=%d", p.OpTotals[spec.Put], p.OpTotals[spec.GetKey])
	}
	if p.MaxSizeAvg != 1 {
		t.Fatalf("maxSize = %v", p.MaxSizeAvg)
	}
	if p.InitialCapAvg != 16 {
		t.Fatalf("initialCap = %v", p.InitialCapAvg)
	}
	if p.MaxHeap.Live == 0 {
		t.Fatalf("GC did not record heap stats for the context")
	}
	if p.GCCycles != 1 {
		t.Fatalf("gc cycles = %d", p.GCCycles)
	}
}

func TestStaticModeWithoutLabelIsUntracked(t *testing.T) {
	rt, prof, _ := profiledRuntime(t)
	l := NewArrayList[int](rt) // no At(...) label
	l.Add(1)
	l.Free()
	for _, p := range prof.Snapshot() {
		if p.Context.Key() == 0 && p.OpTotals[spec.Add] == 1 {
			return // tracked under the no-context bucket
		}
	}
	t.Fatalf("unlabeled allocation should fold into the no-context bucket")
}

func TestDynamicContextProfiling(t *testing.T) {
	prof := profiler.New()
	rt := NewRuntime(Config{
		Profiler: prof,
		Mode:     alloctx.Dynamic,
		Depth:    2,
	})
	l := NewArrayList[int](rt)
	l.Add(1)
	l.Free()
	profiles := prof.Snapshot()
	if len(profiles) != 1 {
		t.Fatalf("contexts = %d", len(profiles))
	}
	p := profiles[0]
	if p.Context == nil || p.Context.Key() == 0 {
		t.Fatalf("dynamic capture produced no context")
	}
	// The captured top frame must be the *caller* of the constructor (this
	// test function), not a library frame.
	frames := p.Context.Frames()
	if len(frames) == 0 {
		t.Fatalf("no frames")
	}
	if fn := frames[0].Function; fn != "collections.TestDynamicContextProfiling" {
		t.Fatalf("top frame = %q, want the allocation site in this test", fn)
	}
}

func TestDynamicSampling(t *testing.T) {
	prof := profiler.New()
	rt := NewRuntime(Config{Profiler: prof, Mode: alloctx.Dynamic, SampleRate: 4})
	var lists []*List[int]
	for i := 0; i < 8; i++ {
		lists = append(lists, NewArrayList[int](rt))
	}
	for _, l := range lists {
		l.Free()
	}
	// 1-in-4 sampling: 2 of 8 allocations carry a context; the other 6
	// fold into the no-context bucket.
	var ctxAllocs, noCtxAllocs int64
	for _, p := range prof.Snapshot() {
		if p.Context.Key() == 0 {
			noCtxAllocs += p.Allocs
		} else {
			ctxAllocs += p.Allocs
		}
	}
	if ctxAllocs != 2 || noCtxAllocs != 6 {
		t.Fatalf("sampled=%d unsampled=%d, want 2/6", ctxAllocs, noCtxAllocs)
	}
}

func TestSelectorOverridesImplementation(t *testing.T) {
	prof := profiler.New()
	rt := NewRuntime(Config{
		Profiler: prof,
		Contexts: alloctx.NewTable(),
		Mode:     alloctx.Static,
		Selector: SelectorFunc(func(_ *alloctx.Context, declared spec.Kind, def Decision) Decision {
			if declared == spec.KindHashMap {
				return Decision{Impl: spec.KindArrayMap, Capacity: 4}
			}
			return def
		}),
	})
	m := NewHashMap[string, int](rt, At("sel:1"))
	if m.Kind() != spec.KindArrayMap {
		t.Fatalf("selector ignored: %v", m.Kind())
	}
	if m.Declared() != spec.KindHashMap {
		t.Fatalf("declared = %v", m.Declared())
	}
	m.Put("x", 1)
	if v, ok := m.Get("x"); !ok || v != 1 {
		t.Fatalf("selected impl broken")
	}
	m.Free()
	p := findByContext(t, prof.Snapshot(), "sel:1")
	if p.Impl != spec.KindArrayMap || p.Declared != spec.KindHashMap {
		t.Fatalf("profile kinds: %v/%v", p.Declared, p.Impl)
	}
}

func TestForcedImplBeatsSelector(t *testing.T) {
	rt := guardedRuntime(SelectorFunc(func(_ *alloctx.Context, _ spec.Kind, def Decision) Decision {
		return Decision{Impl: spec.KindArrayMap}
	}))
	m := NewHashMap[string, int](rt, Impl(spec.KindHashMap))
	if m.Kind() != spec.KindHashMap {
		t.Fatalf("explicit Impl must beat the selector, got %v", m.Kind())
	}
	m.Free()
}

func TestHeapAccountingThroughWrapper(t *testing.T) {
	rt, _, h := profiledRuntime(t)
	l := NewArrayList[int](rt, At("acct:1"), Cap(10))
	before := h.LiveBytes()
	for i := 0; i < 11; i++ { // force one growth: cap 10 -> 16
		l.Add(i)
	}
	// Geometric sync: the growth at size 11 does not cross a power-of-two
	// size class (8 was the last boundary), so the ticket's cached reading
	// is deliberately stale here — the heap still sees the cap-10 backing.
	if h.LiveBytes() != before {
		t.Fatalf("mid-class mutation synced eagerly: %d -> %d", before, h.LiveBytes())
	}
	for i := 11; i < 16; i++ { // size 16 crosses the next class boundary
		l.Add(i)
	}
	after := h.LiveBytes()
	if after <= before {
		t.Fatalf("growth not reflected in heap: %d -> %d", before, after)
	}
	m := heap.Model32
	wantDelta := m.PtrArray(16) - m.PtrArray(10)
	if after-before != wantDelta {
		t.Fatalf("delta = %d, want %d", after-before, wantDelta)
	}
	h.GC() // resync against semantic maps must agree
	if h.LiveBytes() != after {
		t.Fatalf("GC resync changed live: %d != %d", h.LiveBytes(), after)
	}
	l.Free()
	if h.LiveBytes() != 0 {
		t.Fatalf("free left %d live bytes", h.LiveBytes())
	}
	if h.LiveCollections() != 0 {
		t.Fatalf("free left registered collections")
	}
}

func TestFreeIsIdempotentAndFoldsOnce(t *testing.T) {
	rt, prof, _ := profiledRuntime(t)
	l := NewArrayList[int](rt, At("idem:1"))
	l.Add(1)
	l.Free()
	l.Free()
	p := findByContext(t, prof.Snapshot(), "idem:1")
	if p.Allocs != 1 || p.OpTotals[spec.Add] != 1 {
		t.Fatalf("double free corrupted profile: allocs=%d add=%d", p.Allocs, p.OpTotals[spec.Add])
	}
}

func TestIteratorChurnAndEmptyIteratorTracking(t *testing.T) {
	rt, prof, h := profiledRuntime(t)
	l := NewArrayList[int](rt, At("iter:1"))
	allocBefore := h.Stats().TotalAllocated
	_ = l.Iterator() // empty!
	l.Add(1)
	_ = l.Iterator()
	if h.Stats().TotalAllocated <= allocBefore {
		t.Fatalf("iterator churn not accounted")
	}
	l.Free()
	p := findByContext(t, prof.Snapshot(), "iter:1")
	if p.OpTotals[spec.Iterate] != 2 {
		t.Fatalf("iterate ops = %d", p.OpTotals[spec.Iterate])
	}
	if p.EmptyIterators != 1 {
		t.Fatalf("empty iterators = %d, want 1", p.EmptyIterators)
	}
}

func TestAdaptAtThresholdOption(t *testing.T) {
	m := NewSizeAdaptingMap[int, int](Plain(), AdaptAt(4))
	for i := 0; i < 4; i++ {
		m.Put(i, i)
	}
	if m.KindName() != "SizeAdaptingMap" {
		t.Fatalf("kind name = %s", m.KindName())
	}
	inner := m.impl.(*sizeAdaptingMap[int, int])
	if inner.inner.kind() != spec.KindArrayMap {
		t.Fatalf("below threshold should still be ArrayMap")
	}
	m.Put(4, 4) // crosses threshold 4
	if inner.inner.kind() != spec.KindHashMap {
		t.Fatalf("above threshold should be HashMap, got %v", inner.inner.kind())
	}
	for i := 0; i < 5; i++ {
		if v, ok := m.Get(i); !ok || v != i {
			t.Fatalf("conversion lost entry %d", i)
		}
	}
}
