package collections

import (
	"strings"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/spec"
)

func guardedRuntime(sel Selector) *Runtime {
	return NewRuntime(Config{
		Contexts: alloctx.NewTable(),
		Mode:     alloctx.Static,
		Selector: sel,
	})
}

// TestSelectorPanicContained: a panicking selector must never crash an
// allocation; the default is used and the panic is recorded.
func TestSelectorPanicContained(t *testing.T) {
	rt := guardedRuntime(SelectorFunc(func(*alloctx.Context, spec.Kind, Decision) Decision {
		panic("bad selector")
	}))
	m := NewHashMap[int, int](rt, At("guard.rt:1"))
	if m.Kind() != spec.KindHashMap {
		t.Fatalf("kind = %v, want the declared default", m.Kind())
	}
	m.Put(1, 1)
	if v, ok := m.Get(1); !ok || v != 1 {
		t.Fatal("map broken after contained selector panic")
	}
	m.Free()
	h := rt.SelectorHealth()
	if h.Panics != 1 {
		t.Fatalf("health panics = %d, want 1", h.Panics)
	}
	if !strings.Contains(h.LastError, "bad selector") {
		t.Fatalf("health last error = %q", h.LastError)
	}
}

// TestCrossADTDecisionSanitized: a selector answering with a foreign ADT
// (which the constructors would panic on) falls back to the default.
func TestCrossADTDecisionSanitized(t *testing.T) {
	rt := guardedRuntime(SelectorFunc(func(_ *alloctx.Context, _ spec.Kind, def Decision) Decision {
		return Decision{Impl: spec.KindHashSet} // a set is not a map
	}))
	m := NewHashMap[int, int](rt, At("guard.rt:2"))
	if m.Kind() != spec.KindHashMap {
		t.Fatalf("cross-ADT decision applied: %v", m.Kind())
	}
	m.Free()
	if h := rt.SelectorHealth(); h.Panics != 0 {
		t.Fatalf("sanitizing is not a panic: %+v", h)
	}
}

// TestNegativeCapacityClamped: a corrupt capacity is clamped to the
// implementation default instead of reaching make().
func TestNegativeCapacityClamped(t *testing.T) {
	rt := guardedRuntime(SelectorFunc(func(_ *alloctx.Context, _ spec.Kind, def Decision) Decision {
		return Decision{Impl: spec.KindArrayList, Capacity: -7}
	}))
	l := NewArrayList[int](rt, At("guard.rt:3"))
	if l.Kind() != spec.KindArrayList {
		t.Fatalf("kind = %v", l.Kind())
	}
	if l.Capacity() < 0 {
		t.Fatalf("negative capacity leaked: %d", l.Capacity())
	}
	l.Add(1)
	l.Free()
}

// TestZeroKindDecisionKeepsDefault: Impl KindNone means "no opinion" and
// keeps the declared implementation rather than panicking.
func TestZeroKindDecisionKeepsDefault(t *testing.T) {
	rt := guardedRuntime(SelectorFunc(func(_ *alloctx.Context, _ spec.Kind, def Decision) Decision {
		return Decision{Capacity: 4}
	}))
	m := NewHashMap[int, int](rt, At("guard.rt:4"))
	if m.Kind() != spec.KindHashMap {
		t.Fatalf("kind = %v", m.Kind())
	}
	m.Free()
}
