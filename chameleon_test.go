package chameleon_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"

	"chameleon"
	"chameleon/internal/collections"
	"chameleon/internal/spec"
)

// TestPublicAPIEndToEnd drives the whole tool through the root package
// only: session, collections, report, rule language.
func TestPublicAPIEndToEnd(t *testing.T) {
	session := chameleon.NewSession(chameleon.Config{
		Mode:        chameleon.ContextStatic,
		GCThreshold: 16 << 10,
	})
	rt := session.Runtime()

	for i := 0; i < 60; i++ {
		m := chameleon.NewHashMap[string, int](rt, chameleon.At("api.Cache:1;api.Main:2"))
		m.Put("a", i)
		m.Put("b", i)
		for j := 0; j < 40; j++ {
			m.Get("a")
		}
		m.Free()
	}
	l := chameleon.NewLinkedList[int](rt, chameleon.At("api.Queue:9;api.Main:3"))
	for i := 0; i < 500; i++ {
		l.Add(i)
	}
	for i := 0; i < 200; i++ {
		_ = l.Get(i) // random access on a linked list
	}
	l.Free()
	session.FinalGC()

	rep, err := session.Report(chameleon.AdvisorOptions{MinPotential: -1})
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Format()
	if !strings.Contains(text, "replace with ArrayMap") {
		t.Errorf("no ArrayMap suggestion:\n%s", text)
	}
	if !strings.Contains(text, "replace with ArrayList") {
		t.Errorf("no ArrayList suggestion for the random-access LinkedList:\n%s", text)
	}
}

func TestPublicRuleLanguage(t *testing.T) {
	rs, err := chameleon.ParseRules(`HashMap : maxSize < 8 -> ArrayMap "Space: small"`)
	if err != nil {
		t.Fatal(err)
	}
	printed := chameleon.PrintRules(rs)
	if !strings.Contains(printed, "HashMap : maxSize < 8 -> ArrayMap") {
		t.Fatalf("printed = %q", printed)
	}
	if len(chameleon.BuiltinRules().Rules) < 10 {
		t.Fatal("builtin rules missing")
	}
	if _, err := chameleon.BindRules(rs, chameleon.Params{}); err != nil {
		t.Fatalf("bind: %v", err)
	}
	unbound, err := chameleon.ParseRules(`HashMap : maxSize < Q -> ArrayMap`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chameleon.BindRules(unbound, chameleon.Params{}); err == nil {
		t.Fatal("a rule set naming an unbound parameter was bound")
	}
}

func TestPublicOnlineMode(t *testing.T) {
	session := chameleon.NewSession(chameleon.Config{
		Online:        true,
		OnlineOptions: chameleon.OnlineOptions{MinEvidence: 8},
	})
	rt := session.Runtime()
	for i := 0; i < 30; i++ {
		m := chameleon.NewHashMap[int, int](rt, chameleon.At("o:1"))
		m.Put(1, i)
		m.Free()
	}
	m := chameleon.NewHashMap[int, int](rt, chameleon.At("o:1"))
	if m.KindName() != "ArrayMap" {
		t.Fatalf("online replacement missing: %s", m.KindName())
	}
	m.Free()
}

func TestPublicWorkloads(t *testing.T) {
	ws := chameleon.Workloads()
	if len(ws) != 6 {
		t.Fatalf("workloads = %d", len(ws))
	}
	session := chameleon.NewSession(chameleon.Config{})
	if ws[0].Run(session.Runtime(), 0, 20) == 0 {
		t.Fatal("workload did nothing")
	}
}

func TestPublicCollectionsBehaviour(t *testing.T) {
	rt := (*chameleon.Runtime)(nil) // nil runtime: plain library use
	l := chameleon.NewArrayList[string](rt, chameleon.Cap(4))
	l.Add("x")
	l.Add("y")
	if l.Size() != 2 || l.Get(1) != "y" {
		t.Fatal("list broken")
	}
	s := chameleon.NewHashSet[int](rt)
	s.Add(1)
	if !s.Contains(1) || s.Contains(2) {
		t.Fatal("set broken")
	}
	it := l.Iterator()
	var got []string
	for it.HasNext() {
		got = append(got, it.Next())
	}
	if len(got) != 2 {
		t.Fatal("iterator broken")
	}
}

// The full profile -> plan -> re-run loop through the public API only.
func TestPublicPlanWorkflow(t *testing.T) {
	profileRun := func(plan *chameleon.Plan) (*chameleon.Session, uint64) {
		cfg := chameleon.Config{GCThreshold: 16 << 10}
		if plan != nil {
			cfg.Selector = plan
		}
		s := chameleon.NewSession(cfg)
		rt := s.Runtime()
		var sum uint64
		var maps []*chameleon.Map[int, int]
		for i := 0; i < 40; i++ {
			m := chameleon.NewHashMap[int, int](rt, chameleon.At("plan.api:1"))
			for k := 0; k < 5; k++ {
				m.Put(k, k*i)
			}
			for k := 0; k < 50; k++ {
				v, _ := m.Get(k % 5)
				sum += uint64(v)
			}
			maps = append(maps, m) // long-lived: the GC cycles see them
		}
		s.FinalGC()
		for _, m := range maps {
			m.Free()
		}
		return s, sum
	}
	before, sum1 := profileRun(nil)
	rep, err := before.Report(chameleon.AdvisorOptions{MinPotential: -1})
	if err != nil {
		t.Fatal(err)
	}
	plan := chameleon.NewPlan(rep)
	if plan.Len() == 0 {
		t.Fatalf("empty plan from:\n%s", rep.Format())
	}
	after, sum2 := profileRun(plan)
	if sum1 != sum2 {
		t.Fatal("plan changed behaviour")
	}
	// The planned run's collections are ArrayMaps now.
	deltas := chameleon.Compare(before.Prof.Snapshot(), after.Prof.Snapshot())
	if len(deltas) == 0 || deltas[0].Gain <= 0 {
		t.Fatalf("no gain from the plan: %+v", deltas)
	}
}

func TestPublicConstructorsAndExtendedRules(t *testing.T) {
	rt := (*chameleon.Runtime)(nil)
	sll := chameleon.NewSinglyLinkedList[int](rt)
	sll.Add(1)
	if sll.Get(0) != 1 {
		t.Fatal("singly-linked broken")
	}
	ohs := chameleon.NewOpenHashSet[int](rt)
	ohs.Add(2)
	if !ohs.Contains(2) {
		t.Fatal("open set broken")
	}
	ohm := chameleon.NewOpenHashMap[int, int](rt)
	ohm.Put(3, 30)
	if v, _ := ohm.Get(3); v != 30 {
		t.Fatal("open map broken")
	}
	if len(chameleon.ExtendedRules().Rules) <= len(chameleon.BuiltinRules().Rules) {
		t.Fatal("extended rules missing")
	}
	if chameleon.ContextOff.String() != "off" || chameleon.ContextDynamic.String() != "dynamic" {
		t.Fatal("context mode constants wrong")
	}
	var f chameleon.Footprint
	if f.Overhead() != 0 {
		t.Fatal("footprint zero value")
	}
	var m chameleon.SizeModel
	_ = m
}

// TestFixedConstructorsExported pins the specialization surface:
// chameleon-apply renames a decided site's constructor to
// collections.FixedConstructorName(impl) in place, so for a site written
// against this package every concrete kind's fixed constructor must be an
// exported function here too, or the rewritten site would not compile.
func TestFixedConstructorsExported(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	for _, f := range pkgs["chameleon"].Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				funcs[fd.Name.Name] = true
			}
		}
	}
	if len(funcs) == 0 {
		t.Fatal("parsed no exported functions from package chameleon")
	}
	for _, k := range spec.Kinds() {
		name, ok := collections.FixedConstructorName(k)
		if !ok {
			continue
		}
		if !funcs[name] {
			t.Errorf("%v: package chameleon has no %s for chameleon-apply to rewrite onto", k, name)
		}
	}
}
