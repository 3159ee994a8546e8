package alloctx

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestStaticInterning(t *testing.T) {
	tab := NewTable()
	a := tab.Static("tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50")
	b := tab.Static("tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50")
	c := tab.Static("other:1")
	if a != b {
		t.Fatalf("same label must intern to the same *Context")
	}
	if a == c || a.Key() == c.Key() {
		t.Fatalf("different labels must differ")
	}
	if a.Key() == 0 {
		t.Fatalf("key 0 is reserved for no-context")
	}
	if a.String() != "tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50" {
		t.Fatalf("String = %q", a.String())
	}
	if tab.Lookup(a.Key()) != a {
		t.Fatalf("Lookup did not find interned context")
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
}

func TestNilContext(t *testing.T) {
	var c *Context
	if c.Key() != 0 {
		t.Fatalf("nil key = %d", c.Key())
	}
	if c.String() != "<none>" {
		t.Fatalf("nil string = %q", c.String())
	}
	if c.Frames() != nil {
		t.Fatalf("nil frames should be nil")
	}
}

// Two helpers so the dynamic capture sees distinct call sites at a
// controlled depth.
func captureFromA(tab *Table) *Context { return tab.CaptureDynamic(0, 2) }
func captureFromB(tab *Table) *Context { return tab.CaptureDynamic(0, 2) }

func TestDynamicCaptureDistinguishesSites(t *testing.T) {
	tab := NewTable()
	var caps []*Context
	for i := 0; i < 2; i++ {
		caps = append(caps, captureFromA(tab)) // same call site both times
	}
	a1, a2 := caps[0], caps[1]
	b := captureFromB(tab)
	if a1 != a2 {
		t.Fatalf("same call site must intern identically")
	}
	if a1 == b {
		t.Fatalf("distinct call sites must intern differently")
	}
	if len(a1.Frames()) == 0 || len(a1.Frames()) > 2 {
		t.Fatalf("partial context depth wrong: %d frames", len(a1.Frames()))
	}
	if !strings.Contains(a1.String(), "captureFromA") {
		t.Fatalf("frames not symbolized: %q", a1.String())
	}
	if !strings.Contains(a1.String(), ";") && len(a1.Frames()) == 2 {
		t.Fatalf("multi-frame context should join with ';': %q", a1.String())
	}
	// A repeat capture is a frame-pointer walk and a memo probe on amd64,
	// runtime.Callers, a hash and a lookup elsewhere; neither allocates
	// (the walk's buffer stays on the stack).
	if a := testing.AllocsPerRun(100, func() { captureFromA(tab) }); a != 0 {
		t.Fatalf("repeat dynamic capture allocates %.1f times", a)
	}
}

func TestDynamicCaptureDepth(t *testing.T) {
	tab := NewTable()
	deep := func() *Context { return tab.CaptureDynamic(0, 3) }
	c := deep()
	if len(c.Frames()) != 3 {
		t.Fatalf("depth-3 capture got %d frames", len(c.Frames()))
	}
	// Depth defaulting.
	d := tab.CaptureDynamic(0, 0)
	if len(d.Frames()) != 2 {
		t.Fatalf("default depth should be 2, got %d", len(d.Frames()))
	}
}

func TestHashPCsNeverZero(t *testing.T) {
	f := func(pcs []uint32) bool {
		in := make([]uintptr, len(pcs))
		for i, p := range pcs {
			in[i] = uintptr(p)
		}
		return hashPCs(in) != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if hashString("") == 0 {
		t.Fatal("hashString must never return 0")
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(3)
	var hits int
	for i := 0; i < 9; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 3 {
		t.Fatalf("1-in-3 sampler hit %d of 9", hits)
	}
	always := NewSampler(1)
	for i := 0; i < 5; i++ {
		if !always.Sample() {
			t.Fatalf("rate<=1 must always sample")
		}
	}
	var nilSampler *Sampler
	if !nilSampler.Sample() {
		t.Fatalf("nil sampler must always sample")
	}
	var zero Sampler
	if !zero.Sample() {
		t.Fatalf("zero sampler must always sample")
	}
}

func TestModeString(t *testing.T) {
	if Off.String() != "off" || Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Fatalf("mode names wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Fatalf("unknown mode formatting wrong")
	}
}

func TestTrimFunc(t *testing.T) {
	if got := trimFunc("chameleon/internal/workloads.(*TVLA).step"); got != "workloads.(*TVLA).step" {
		t.Fatalf("trimFunc = %q", got)
	}
	if got := trimFunc("main.main"); got != "main.main" {
		t.Fatalf("trimFunc = %q", got)
	}
}

// Static context keys must be stable across independent tables: the
// tool-applied plan workflow stores decisions keyed by context from one
// run and applies them in a fresh run with a fresh table.
func TestStaticKeysStableAcrossTables(t *testing.T) {
	a := NewTable().Static("pkg.Fn:12;pkg.Caller:9")
	b := NewTable().Static("pkg.Fn:12;pkg.Caller:9")
	if a.Key() != b.Key() {
		t.Fatalf("keys differ across tables: %d vs %d", a.Key(), b.Key())
	}
	c := NewTable().Static("pkg.Fn:13;pkg.Caller:9")
	if a.Key() == c.Key() {
		t.Fatalf("distinct labels collided")
	}
}

// TestStaticInternLinear: interning N fresh labels allocates O(N) — the
// memo table grows by doubling instead of being copied per label — and a
// repeat lookup allocates nothing.
func TestStaticInternLinear(t *testing.T) {
	const n = 1024
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("linear.test:%d", i)
	}
	allocs := testing.AllocsPerRun(3, func() {
		tab := NewTable()
		for _, l := range labels {
			tab.Static(l)
		}
	})
	// A context and its sync.Map entry are a handful of objects per label;
	// the doubling table adds O(log N). Copying the memo per label would
	// cost thousands per label at this size.
	if allocs > 8*n {
		t.Fatalf("interning %d labels took %.0f allocations, want O(N) (<= %d)", n, allocs, 8*n)
	}
	tab := NewTable()
	for _, l := range labels {
		tab.Static(l)
	}
	if a := testing.AllocsPerRun(100, func() { tab.Static(labels[n/2]) }); a != 0 {
		t.Fatalf("static hit allocates %.1f times", a)
	}
	for _, l := range labels {
		if c := tab.Static(l); c.String() != l {
			t.Fatalf("label %q resolved to %v", l, c)
		}
	}
}

// BenchmarkStaticIntern: building a fresh table of 192 labels (one
// perfbench program's sites), and the hit path on a warm one.
func BenchmarkStaticIntern(b *testing.B) {
	labels := make([]string, 192)
	for i := range labels {
		labels[i] = fmt.Sprintf("bench.site%03d:%d", i, 10+i)
	}
	b.Run("fresh=192", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab := NewTable()
			for _, l := range labels {
				tab.Static(l)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		tab := NewTable()
		for _, l := range labels {
			tab.Static(l)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tab.Static(labels[i%len(labels)])
		}
	})
}
