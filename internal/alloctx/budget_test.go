package alloctx

import (
	"fmt"
	"sync"
	"testing"
)

// TestBudgetDeniesIntoOverflow: past the context budget, fresh captures
// alias to the shared overflow context instead of growing the table; the
// denial counter tracks them and the table stays bounded.
func TestBudgetDeniesIntoOverflow(t *testing.T) {
	tbl := NewTable()
	tbl.SetMaxContexts(4)

	var admitted []*Context
	for i := 0; i < 4; i++ {
		admitted = append(admitted, tbl.Static(fmt.Sprintf("budget.test:%d", i)))
	}
	over := tbl.Static("budget.test:denied")
	if over != tbl.Overflow() {
		t.Fatalf("capture past the budget = %v, want the overflow context", over)
	}
	if over.String() != OverflowLabel {
		t.Fatalf("overflow label = %q, want %q", over.String(), OverflowLabel)
	}
	for i, c := range admitted {
		if c == over {
			t.Fatalf("admitted context %d aliases overflow", i)
		}
	}
	if n := tbl.Len(); n > tbl.MaxContexts()+1 {
		t.Fatalf("table len = %d, want <= budget+overflow = %d", n, tbl.MaxContexts()+1)
	}
	if d := tbl.OverflowAdmissions(); d != 1 {
		t.Fatalf("denied admissions = %d, want 1", d)
	}
}

// TestBudgetDenialNotMemoized: a denied label must not burn a statics-map
// entry (that would defeat the bound) and must stay denied while full —
// but an already-admitted label keeps resolving to its own context.
func TestBudgetDenialNotMemoized(t *testing.T) {
	tbl := NewTable()
	tbl.SetMaxContexts(2)
	a := tbl.Static("memo.test:a")
	b := tbl.Static("memo.test:b")
	for i := 0; i < 3; i++ {
		if got := tbl.Static("memo.test:c"); got != tbl.Overflow() {
			t.Fatalf("denied label resolved to %v on attempt %d", got, i)
		}
	}
	if got := tbl.Static("memo.test:a"); got != a {
		t.Fatalf("admitted label lost its context: %v != %v", got, a)
	}
	if got := tbl.Static("memo.test:b"); got != b {
		t.Fatalf("admitted label lost its context: %v != %v", got, b)
	}
	if n := tbl.Len(); n > 3 {
		t.Fatalf("table len = %d after repeated denials, want <= 3", n)
	}
}

// TestBudgetDynamicCapture: dynamic captures obey the same budget.
func TestBudgetDynamicCapture(t *testing.T) {
	tbl := NewTable()
	tbl.SetMaxContexts(1)
	tbl.Static("dyn.test:pinned")
	c := tbl.CaptureDynamic(1, 2)
	if c != tbl.Overflow() {
		t.Fatalf("dynamic capture past the budget = %v, want overflow", c)
	}
}

// TestBudgetConcurrentBound hammers a full table from many goroutines: the
// documented bound Len() <= MaxContexts()+1 must hold exactly, the +1
// being the overflow context itself, which is interned outside the budget.
func TestBudgetConcurrentBound(t *testing.T) {
	tbl := NewTable()
	tbl.SetMaxContexts(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tbl.Static(fmt.Sprintf("conc.test:%d.%d", g, i))
			}
		}(g)
	}
	wg.Wait()
	// Each admission reserves its place with a compare-and-swap on the
	// context count before storing, so racing first captures cannot all
	// pass one budget check.
	if n := tbl.Len(); n > tbl.MaxContexts()+1 {
		t.Fatalf("concurrent table len = %d, want <= %d", n, tbl.MaxContexts()+1)
	}
	if tbl.OverflowAdmissions() == 0 {
		t.Fatal("no denials recorded under pressure")
	}
}

// TestSamplerSetRate: the sampling rate is adjustable at runtime (the
// governor's sampled tier drives it) and nil/low rates capture everything.
func TestSamplerSetRate(t *testing.T) {
	s := NewSampler(1)
	for i := 0; i < 10; i++ {
		if !s.Sample() {
			t.Fatal("rate-1 sampler skipped a capture")
		}
	}
	s.SetRate(4)
	if got := s.Rate(); got != 4 {
		t.Fatalf("rate = %d, want 4", got)
	}
	hits := 0
	for i := 0; i < 400; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("rate-4 sampler hit %d of 400, want exactly 100", hits)
	}
	var nilS *Sampler
	if !nilS.Sample() {
		t.Fatal("nil sampler must capture everything")
	}
}

// TestSlotsUnique: every interned context gets its own non-zero slot, also
// when concurrent first captures race for one key and the losers' slots
// are left unused; the overflow context gets one too.
func TestSlotsUnique(t *testing.T) {
	tbl := NewTable()
	tbl.SetMaxContexts(48)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				tbl.Static(fmt.Sprintf("slot.test:%d", i))
			}
		}()
	}
	wg.Wait()
	seen := map[int32]string{}
	check := func(c *Context) {
		s := c.Slot()
		if s <= 0 {
			t.Fatalf("%v has slot %d", c, s)
		}
		if prev, dup := seen[s]; dup && prev != c.String() {
			t.Fatalf("slot %d shared by %s and %v", s, prev, c)
		}
		seen[s] = c.String()
	}
	for i := 0; i < 64; i++ {
		check(tbl.Static(fmt.Sprintf("slot.test:%d", i)))
	}
	check(tbl.Overflow())
	if len(seen) != tbl.Len() {
		t.Fatalf("%d distinct slots for %d interned contexts", len(seen), tbl.Len())
	}
	var none *Context
	if none.Slot() != 0 {
		t.Fatalf("nil context slot = %d, want 0", none.Slot())
	}
}
