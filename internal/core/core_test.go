package core

import (
	"strings"
	"testing"

	"chameleon/internal/advisor"
	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/heap"
	"chameleon/internal/spec"
)

func TestSessionEndToEnd(t *testing.T) {
	s := NewSession(Config{GCThreshold: 4 << 10, KeepSnapshots: true})
	rt := s.Runtime()

	var maps []*collections.Map[int, int]
	for i := 0; i < 50; i++ {
		m := collections.NewHashMap[int, int](rt, collections.At("app.Factory:10;app.Main:20"))
		for j := 0; j < 5; j++ {
			m.Put(j, j)
		}
		for j := 0; j < 60; j++ {
			m.Get(j % 5)
		}
		maps = append(maps, m)
	}
	for _, m := range maps {
		m.Free()
	}
	s.FinalGC()

	if s.Heap.Stats().NumGC < 2 {
		t.Fatalf("GCs = %d", s.Heap.Stats().NumGC)
	}
	rep, err := s.Report(advisor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Suggestions) == 0 {
		t.Fatal("no suggestions")
	}
	if rep.Suggestions[0].Primary.Rule.Act.Impl != spec.KindArrayMap {
		t.Fatalf("suggestion = %s", advisor.Describe(rep.Suggestions[0].Primary))
	}
	if !strings.Contains(rep.Format(), "app.Factory:10;app.Main:20") {
		t.Fatalf("report lacks context:\n%s", rep.Format())
	}

	pts := s.PotentialSeries()
	if len(pts) == 0 {
		t.Fatal("no series")
	}
	for _, p := range pts {
		if p.UsedPct > p.LivePct+1e-9 || p.CorePct > p.UsedPct+1e-9 {
			t.Fatalf("nesting violated: %+v", p)
		}
	}
}

func TestSessionOnlineMode(t *testing.T) {
	s := NewSession(Config{Online: true, GCThreshold: 1 << 20})
	if s.Selector == nil {
		t.Fatal("online session lacks selector")
	}
	rt := s.Runtime()
	for i := 0; i < 40; i++ {
		m := collections.NewHashMap[int, int](rt, collections.At("online.site:1"))
		m.Put(1, 1)
		m.Free()
	}
	m := collections.NewHashMap[int, int](rt, collections.At("online.site:1"))
	if m.Kind() != spec.KindArrayMap {
		t.Fatalf("online replacement did not happen: %v", m.Kind())
	}
	m.Free()
}

func TestSessionNoProfiling(t *testing.T) {
	s := NewSession(Config{NoProfiling: true})
	if s.Prof != nil {
		t.Fatal("NoProfiling session has a profiler")
	}
	rt := s.Runtime()
	l := collections.NewArrayList[int](rt, collections.At("x:1"))
	l.Add(1)
	l.Free()
	rep, err := s.Report(advisor.Options{})
	if err != nil || len(rep.Suggestions) != 0 {
		t.Fatalf("report on unprofiled session: %v %v", rep, err)
	}
	// Heap simulation still works.
	if s.Heap.Stats().TotalAllocated == 0 {
		t.Fatal("heap accounting off")
	}
}

func TestSessionDynamicMode(t *testing.T) {
	s := NewSession(Config{Mode: alloctx.Dynamic, GCThreshold: 1 << 20})
	l := collections.NewArrayList[int](s.Runtime())
	l.Add(1)
	l.Free()
	profiles := s.Prof.Snapshot()
	if len(profiles) != 1 || profiles[0].Context.Key() == 0 {
		t.Fatalf("dynamic session did not capture a context")
	}
}

func TestSessionHeapLimit(t *testing.T) {
	s := NewSession(Config{Limit: 4096, NoProfiling: true})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no OOM panic")
		}
		oom, ok := r.(heap.OOMError)
		if !ok {
			t.Fatalf("panic value %T", r)
		}
		if oom.Limit != 4096 || oom.Needed <= 4096 {
			t.Fatalf("oom = %+v", oom)
		}
		if oom.Error() == "" {
			t.Fatal("empty error text")
		}
	}()
	for i := 0; i < 100; i++ {
		_ = s.Heap.AllocData(256)
	}
}

func TestSessionFixedSelector(t *testing.T) {
	plan := collections.SelectorFunc(func(_ *alloctx.Context, declared spec.Kind, def collections.Decision) collections.Decision {
		if declared == spec.KindHashMap {
			return collections.Decision{Impl: spec.KindArrayMap, Capacity: 4}
		}
		return def
	})
	s := NewSession(Config{Selector: plan})
	m := collections.NewHashMap[int, int](s.Runtime(), collections.At("sel:1"))
	if m.Kind() != spec.KindArrayMap {
		t.Fatalf("fixed selector ignored: %v", m.Kind())
	}
	m.Free()
}
