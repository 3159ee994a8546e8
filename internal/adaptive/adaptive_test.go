package adaptive

import (
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/profiler"
	"chameleon/internal/spec"
)

// runtimeWithSelector builds a runtime whose allocations are decided by an
// online selector fed from the same profiler.
func runtimeWithSelector(opts Options) (*collections.Runtime, *Selector, *profiler.Profiler) {
	prof := profiler.New()
	sel := New(prof, opts)
	rt := collections.NewRuntime(collections.Config{
		Profiler: prof,
		Contexts: alloctx.NewTable(),
		Mode:     alloctx.Static,
		Selector: sel,
	})
	return rt, sel, prof
}

func TestOnlineReplacementAfterEvidence(t *testing.T) {
	rt, sel, _ := runtimeWithSelector(Options{MinEvidence: 8})
	// Phase 1: allocate small HashMaps and free them, building evidence.
	for i := 0; i < 8; i++ {
		m := collections.NewHashMap[int, int](rt, At())
		for j := 0; j < 5; j++ {
			m.Put(j, j)
		}
		for j := 0; j < 50; j++ {
			m.Get(j % 5)
		}
		m.Free()
	}
	// The 9th allocation crosses MinEvidence: the selector decides and
	// subsequent allocations are ArrayMaps.
	m := collections.NewHashMap[int, int](rt, At())
	if m.Kind() != spec.KindArrayMap {
		t.Fatalf("online mode did not replace: kind = %v", m.Kind())
	}
	if m.Declared() != spec.KindHashMap {
		t.Fatalf("declared changed: %v", m.Declared())
	}
	m.Put(1, 1)
	if v, ok := m.Get(1); !ok || v != 1 {
		t.Fatalf("replaced map broken")
	}
	m.Free()
	if sel.Replacements() == 0 {
		t.Fatalf("replacements counter not incremented")
	}
	if len(sel.Decisions()) != 1 {
		t.Fatalf("decisions = %d", len(sel.Decisions()))
	}
}

// At returns a static-context option with a fixed label (helper keeping
// the call sites in one "context").
func At() collections.Option { return collections.At("adaptive.test:1") }

func TestNoContextNoDecision(t *testing.T) {
	rt, sel, _ := runtimeWithSelector(Options{MinEvidence: 1})
	for i := 0; i < 5; i++ {
		m := collections.NewHashMap[int, int](rt) // unlabeled: no context
		m.Put(1, 1)
		m.Free()
	}
	m := collections.NewHashMap[int, int](rt)
	if m.Kind() != spec.KindHashMap {
		t.Fatalf("selector decided without a context")
	}
	m.Free()
	if sel.Replacements() != 0 {
		t.Fatalf("replacements = %d", sel.Replacements())
	}
	if st := sel.Statuses(); len(st) != 0 {
		t.Fatalf("selector kept state without a context: %+v", st)
	}
}

func TestInsufficientEvidenceKeepsDefault(t *testing.T) {
	rt, _, _ := runtimeWithSelector(Options{MinEvidence: 100})
	for i := 0; i < 10; i++ {
		m := collections.NewHashMap[int, int](rt, At())
		m.Put(1, 1)
		m.Free()
	}
	m := collections.NewHashMap[int, int](rt, At())
	if m.Kind() != spec.KindHashMap {
		t.Fatalf("decided below MinEvidence")
	}
	m.Free()
}

func TestCrossADTSuggestionsSkippedOnline(t *testing.T) {
	// A contains-heavy large ArrayList's first matching rule suggests
	// LinkedHashSet — a cross-ADT change the online mode must skip. The
	// next applicable rule (setCapacity) may still apply.
	rt, _, _ := runtimeWithSelector(Options{MinEvidence: 4})
	for i := 0; i < 4; i++ {
		l := collections.NewArrayList[int](rt, At2())
		for j := 0; j < 100; j++ {
			l.Add(j)
		}
		for j := 0; j < 200; j++ {
			l.Contains(j % 100)
		}
		l.Free()
	}
	l := collections.NewArrayList[int](rt, At2())
	if l.Kind().Abstract() != spec.KindList {
		t.Fatalf("online mode crossed ADTs: %v", l.Kind())
	}
	// The setCapacity rule should have fired: capacity tuned to ~100.
	if l.Capacity() < 100 {
		t.Fatalf("capacity = %d, want tuned to observed max (~100)", l.Capacity())
	}
	l.Free()
}

func At2() collections.Option { return collections.At("adaptive.test:2") }
