package collections

import (
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/spec"
)

// The fixed constructors are the rewrite target of chameleon-apply: same
// wrapper types, same semantics, zero profiling machinery. These tests pin
// both halves of that contract — behavioural equivalence against the
// profiled constructors, and observational silence toward the profiler and
// heap.

func TestFixedListBehavesLikeProfiled(t *testing.T) {
	kinds := []struct {
		name  string
		fixed func(*Runtime) *List[int]
	}{
		{"ArrayList", func(rt *Runtime) *List[int] { return NewFixedArrayList[int](rt, Cap(4)) }},
		{"LinkedList", func(rt *Runtime) *List[int] { return NewFixedLinkedList[int](rt) }},
		{"SinglyLinkedList", func(rt *Runtime) *List[int] { return NewFixedSinglyLinkedList[int](rt) }},
		{"LazyArrayList", func(rt *Runtime) *List[int] { return NewFixedLazyArrayList[int](rt, Cap(4)) }},
		{"IntArrayList", func(rt *Runtime) *List[int] { return NewFixedIntArrayList(rt, Cap(4)) }},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			l := k.fixed(Plain())
			for i := 0; i < 10; i++ {
				l.Add(i * 3)
			}
			if l.Size() != 10 || l.Get(4) != 12 || !l.Contains(27) || l.IndexOf(9) != 3 {
				t.Fatalf("%s: fixed list computes wrong results", k.name)
			}
			l.Remove(0)
			if l.Size() != 9 || l.Get(0) != 3 {
				t.Fatalf("%s: remove broken", k.name)
			}
			l.Free()
		})
	}
}

func TestFixedSingletonAndEmptyList(t *testing.T) {
	s := NewFixedSingletonList[string](Plain())
	s.Add("only")
	if s.Size() != 1 || s.Get(0) != "only" {
		t.Fatalf("singleton broken")
	}
	s.Free()

	e := NewFixedEmptyList[int](Plain())
	if !e.IsEmpty() {
		t.Fatalf("empty list not empty")
	}
	e.Free()
}

func TestFixedSetAndMapBehave(t *testing.T) {
	for _, mk := range []func(*Runtime) *Set[int]{
		func(rt *Runtime) *Set[int] { return NewFixedHashSet[int](rt) },
		func(rt *Runtime) *Set[int] { return NewFixedArraySet[int](rt, Cap(8)) },
		func(rt *Runtime) *Set[int] { return NewFixedOpenHashSet[int](rt) },
		func(rt *Runtime) *Set[int] { return NewFixedLazySet[int](rt) },
		func(rt *Runtime) *Set[int] { return NewFixedLinkedHashSet[int](rt) },
		func(rt *Runtime) *Set[int] { return NewFixedSizeAdaptingSet[int](rt, AdaptAt(4)) },
	} {
		s := mk(Plain())
		for i := 0; i < 6; i++ {
			s.Add(i % 3) // duplicates: set invariant must hold
		}
		if s.Size() != 3 || !s.Contains(2) || s.Contains(7) {
			t.Fatalf("fixed set (%v) broken: size=%d", s.Kind(), s.Size())
		}
		s.Free()
	}

	for _, mk := range []func(*Runtime) *Map[int, int]{
		func(rt *Runtime) *Map[int, int] { return NewFixedHashMap[int, int](rt) },
		func(rt *Runtime) *Map[int, int] { return NewFixedArrayMap[int, int](rt, Cap(8)) },
		func(rt *Runtime) *Map[int, int] { return NewFixedOpenHashMap[int, int](rt) },
		func(rt *Runtime) *Map[int, int] { return NewFixedLazyMap[int, int](rt) },
		func(rt *Runtime) *Map[int, int] { return NewFixedLinkedHashMap[int, int](rt) },
		func(rt *Runtime) *Map[int, int] { return NewFixedSizeAdaptingMap[int, int](rt, AdaptAt(4)) },
	} {
		m := mk(Plain())
		for i := 0; i < 5; i++ {
			m.Put(i, i*i)
		}
		if v, ok := m.Get(3); !ok || v != 9 || m.Size() != 5 {
			t.Fatalf("fixed map (%v) broken", m.Kind())
		}
		m.Free()
	}

	sm := NewFixedSingletonMap[int, int](Plain())
	sm.Put(1, 2)
	if v, ok := sm.Get(1); !ok || v != 2 {
		t.Fatalf("fixed singleton map broken")
	}
	sm.Free()
}

// A fixed constructor on a fully profiled runtime must leave no trace: no
// context interned, no instance record, no heap ticket — that is the whole
// point of specializing a decided site.
func TestFixedConstructorsAreInvisibleToProfiling(t *testing.T) {
	rt, prof, h := profiledRuntime(t)

	l := NewFixedLazyArrayList[int](rt, At("fixed:site"), Cap(8))
	l.Add(1)
	l.Add(2)
	s := NewFixedArraySet[int](rt, At("fixed:site"))
	s.Add(1)
	m := NewFixedArrayMap[int, int](rt, At("fixed:site"), Cap(4))
	m.Put(1, 1)
	h.GC()
	l.Free()
	s.Free()
	m.Free()

	for _, p := range prof.Snapshot() {
		if p.Context.String() == "fixed:site" {
			t.Fatalf("fixed allocation interned its At label into the profiler")
		}
		if p.Allocs != 0 {
			t.Fatalf("fixed allocation recorded in context %q", p.Context)
		}
	}
	if got := h.Stats().MaxCollectionNo; got != 0 {
		t.Fatalf("fixed collections registered %d heap tickets, want 0", got)
	}
}

// Fixed wrappers must still size themselves correctly (HeapFootprint is
// part of the public wrapper surface even when no ticket consumes it).
func TestFixedFootprintComputes(t *testing.T) {
	l := NewFixedArrayList[int](Plain(), Cap(16))
	l.Add(1)
	if f := l.HeapFootprint(); f.Live == 0 {
		t.Fatalf("fixed list footprint is zero")
	}
}

func TestFixedConstructorName(t *testing.T) {
	cases := map[spec.Kind]string{
		spec.KindArrayList:       "NewFixedArrayList",
		spec.KindLazyArrayList:   "NewFixedLazyArrayList",
		spec.KindIntArray:        "NewFixedIntArrayList",
		spec.KindArrayMap:        "NewFixedArrayMap",
		spec.KindOpenHashSet:     "NewFixedOpenHashSet",
		spec.KindSizeAdaptingMap: "NewFixedSizeAdaptingMap",
	}
	for k, want := range cases {
		got, ok := FixedConstructorName(k)
		if !ok || got != want {
			t.Errorf("FixedConstructorName(%v) = %q, %v; want %q", k, got, ok, want)
		}
	}
	for _, k := range []spec.Kind{spec.KindList, spec.KindCollection, spec.KindNone} {
		if name, ok := FixedConstructorName(k); ok {
			t.Errorf("FixedConstructorName(%v) = %q, want none (abstract)", k, name)
		}
	}
}

// Regression: the copy constructor must not pollute the source profile.
// Sizing the copy reads src.impl directly; the only operation the copy
// records on src is the one Copied.
func TestNewListFromRecordsExactlyOneCopiedOnSource(t *testing.T) {
	rt, prof, _ := profiledRuntime(t)
	src := NewArrayList[int](rt, At("copy:src"))
	src.Add(1)
	src.Add(2)
	src.Add(3)

	dst := NewListFrom(rt, src, At("copy:dst"))
	if dst.Size() != 3 || dst.Get(2) != 3 {
		t.Fatalf("copy constructor produced wrong copy")
	}
	dst.Free()
	src.Free() // flush pending counters so the snapshot is exact

	p := findByContext(t, prof.Snapshot(), "copy:src")
	for op := spec.Op(0); op < spec.NumOps; op++ {
		want := int64(0)
		switch op {
		case spec.Add:
			want = 3
		case spec.Copied:
			want = 1
		}
		if got := p.OpTotals[op]; got != want {
			t.Errorf("src OpTotals[%v] = %d, want %d (copy constructor leaked a trace op)", op, got, want)
		}
	}
}

// Regression: NewIntArrayList routes through decide, so selector policy
// (capacity rules compiled into a Plan, the online mode) observes IntArray
// sites. The implementation stays pinned: whatever the selector answers,
// the backing is the unboxed int array.
func TestIntArrayListDecisionRoutesThroughSelector(t *testing.T) {
	seen := 0
	rt := NewRuntime(Config{
		Selector: SelectorFunc(func(_ *alloctx.Context, declared spec.Kind, def Decision) Decision {
			seen++
			if declared != spec.KindIntArray {
				t.Errorf("selector saw declared %v, want IntArray", declared)
			}
			// A capacity decision (what a setCapacity rule compiles to).
			return Decision{Impl: spec.KindArrayList, Capacity: 64}
		}),
	})
	l := NewIntArrayList(rt)
	if seen != 1 {
		t.Fatalf("selector consulted %d times, want 1 (decision bypassed decide)", seen)
	}
	if l.Kind() != spec.KindIntArray {
		t.Fatalf("impl = %v, want IntArray pinned", l.Kind())
	}
	if l.Capacity() != 64 {
		t.Fatalf("capacity = %d, want the selector's 64", l.Capacity())
	}
	l.Free()

	// Impl() still wins over the selector, as at every other constructor.
	forced := NewIntArrayList(rt, Impl(spec.KindIntArray), Cap(5))
	if forced.Capacity() != 5 {
		t.Fatalf("forced capacity = %d, want 5", forced.Capacity())
	}
	forced.Free()
}
