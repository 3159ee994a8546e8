package adaptive

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/faults"
	"chameleon/internal/profiler"
	"chameleon/internal/spec"
)

// seedContext feeds n completed HashMap instances of the given size into a
// fresh static context so the selector has evidence to decide on.
func seedContext(prof *profiler.Profiler, tbl *alloctx.Table, label string, n, size int) uint64 {
	ctx := tbl.Static(label)
	for i := 0; i < n; i++ {
		in := prof.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 0)
		for j := 0; j < size; j++ {
			in.Record(spec.Put)
		}
		in.NoteSize(size)
		prof.OnDeath(in)
	}
	return ctx.Key()
}

// TestRollbackOnPhaseShift is the tentpole acceptance scenario: a context
// earns an ArrayMap(1) decision on small maps, the workload shifts to
// large maps, and verification detects the broken capacity premise on
// post-decision evidence and rolls the context back to the default.
func TestRollbackOnPhaseShift(t *testing.T) {
	rt, sel, _ := runtimeWithSelector(Options{MinEvidence: 8, VerifyEvery: 8, MinWindowEvidence: 4})
	at := collections.At("guard.test:rollback")

	// Phase 1: tiny maps earn the ArrayMap replacement.
	for i := 0; i < 8; i++ {
		m := collections.NewHashMap[int, int](rt, at)
		m.Put(1, 1)
		m.Free()
	}
	m := collections.NewHashMap[int, int](rt, at)
	if m.Kind() != spec.KindArrayMap {
		t.Fatalf("phase 1 did not replace: kind = %v", m.Kind())
	}
	m.Free()

	// Phase 2: the same context now builds large maps. The tuned capacity
	// is outgrown immediately; the next verification must roll back.
	sawDefault := false
	for i := 0; i < 24; i++ {
		m := collections.NewHashMap[int, int](rt, at)
		for j := 0; j < 50; j++ {
			m.Put(j, j)
		}
		if m.Kind() == spec.KindHashMap {
			sawDefault = true
		}
		m.Free()
	}
	if sel.Rollbacks() == 0 {
		t.Fatal("phase shift never rolled the decision back")
	}
	if !sawDefault {
		t.Fatal("post-rollback allocations still receive the revoked decision")
	}
	sts := sel.Statuses()
	if len(sts) != 1 {
		t.Fatalf("contexts = %d, want 1", len(sts))
	}
	st := sts[0]
	if st.Status != StatusQuarantined {
		t.Fatalf("status = %v, want quarantined", st.Status)
	}
	if st.Rollbacks == 0 || st.Backoff == 0 {
		t.Fatalf("rollbacks=%d backoff=%d, want both > 0", st.Rollbacks, st.Backoff)
	}
	if !strings.Contains(st.LastError, "capacity") && !strings.Contains(st.LastError, "premise") {
		t.Fatalf("rollback reason not recorded: %q", st.LastError)
	}
}

// TestVerifiedStablePhase: a context whose behaviour keeps matching the
// decision's premise is promoted to Verified and never rolled back.
func TestVerifiedStablePhase(t *testing.T) {
	rt, sel, _ := runtimeWithSelector(Options{MinEvidence: 8, VerifyEvery: 8, MinWindowEvidence: 4})
	at := collections.At("guard.test:stable")
	for i := 0; i < 60; i++ {
		m := collections.NewHashMap[int, int](rt, at)
		m.Put(1, 1)
		m.Free()
	}
	if sel.Verifies() == 0 {
		t.Fatal("stable context was never verified")
	}
	if sel.Rollbacks() != 0 || sel.Quarantines() != 0 {
		t.Fatalf("stable context punished: rollbacks=%d quarantines=%d",
			sel.Rollbacks(), sel.Quarantines())
	}
	if st := sel.Statuses()[0]; st.Status != StatusVerified || !st.Applied {
		t.Fatalf("status = %v applied=%v, want verified/applied", st.Status, st.Applied)
	}
}

func TestNextBackoff(t *testing.T) {
	for _, c := range []struct{ cur, base, limit, want int64 }{
		{0, 3, 64, 3},    // first quarantine: the base, odd included
		{3, 3, 64, 6},    // then doubling
		{48, 3, 64, 64},  // capped
		{64, 3, 64, 64},  // held at the cap, never reset
		{0, 100, 64, 64}, // the first length is capped too
	} {
		if got := nextBackoff(c.cur, c.base, c.limit); got != c.want {
			t.Errorf("nextBackoff(%d, %d, %d) = %d, want %d", c.cur, c.base, c.limit, got, c.want)
		}
	}
}

// TestAppliedDecisionHasWindow: every applied decision has an open
// evidence window, so verification never meets a context without one.
// The stream walks each path that opens or closes a window (decide, verify
// pass, rollback, re-decide after backoff or after a contained panic, a
// vanished window snapshot) and checks after every allocation.
func TestAppliedDecisionHasWindow(t *testing.T) {
	rt, sel, prof := runtimeWithSelector(Options{
		MinEvidence: 8, VerifyEvery: 8, MinWindowEvidence: 2, QuarantineBackoff: 16, PanicBudget: -1,
	})
	const panicSite, flipSite, vanishSite = "guard.test:window-panic", "guard.test:window-flip", "guard.test:window-vanish"
	vanishKey := alloctx.StaticKey(vanishSite)
	var vanishConsults, vanished atomic.Int64
	faults.ArmT(t, &faults.Plan{
		// The first rule evaluation is panicSite's first decide.
		RuleEvalPanic: faults.PanicOnce("injected", 1),
		// vanishSite's first consult is its decide; every third
		// verification after it loses its window snapshot.
		CorruptSnapshot: func(key uint64, p any) any {
			if key == vanishKey {
				if n := vanishConsults.Add(1); n > 1 && n%3 == 0 {
					vanished.Add(1)
					return nil
				}
			}
			return p
		},
	})
	for i := 0; i < 400; i++ {
		for _, site := range []string{panicSite, flipSite, vanishSite} {
			m := collections.NewHashMap[int, int](rt, collections.At(site))
			n := 1
			if site == flipSite && i%80 >= 72 {
				// Each burst outgrows the capacity the last decision
				// tuned (a rollback) but stays small enough to re-decide
				// after the backoff.
				n = 2 * (i/80 + 1)
			}
			for j := 0; j < n; j++ {
				m.Put(j, j)
			}
			m.Free()
			for _, cs := range sel.Statuses() {
				if cs.Applied && prof.WindowSnapshot(cs.Context) == nil {
					t.Fatalf("allocation %d: context %#x applies %v with no evidence window",
						i, cs.Context, cs.Status)
				}
			}
		}
	}
	if sel.Verifies() == 0 || sel.Rollbacks() < 2 || sel.Panics() != 1 || vanished.Load() == 0 {
		t.Fatalf("stream missed a path: verifies=%d rollbacks=%d panics=%d vanished=%d",
			sel.Verifies(), sel.Rollbacks(), sel.Panics(), vanished.Load())
	}
}

// TestFlappingQuarantineBackoffGrows: a context that keeps invalidating
// its decisions (here via injected rule-eval panics) quarantines with
// exponentially growing backoff, so the selector stops re-trying it at a
// geometric rate — the hysteresis that makes flapping converge.
func TestFlappingQuarantineBackoffGrows(t *testing.T) {
	prof := profiler.New()
	tbl := alloctx.NewTable()
	key := seedContext(prof, tbl, "guard.test:flap", 4, 1)
	sel := New(prof, Options{MinEvidence: 1, PanicBudget: -1, QuarantineBackoff: 2, BackoffMax: 16})
	faults.ArmT(t, &faults.Plan{RuleEvalPanic: func() (any, bool) { return "flap", true }})

	def := collections.Decision{Impl: spec.KindHashMap}
	var growth []int64
	last := int64(0)
	for i := 0; i < 200; i++ {
		if got := sel.Select(key, spec.KindHashMap, def); got != def {
			t.Fatalf("flapping context escaped the default: %+v", got)
		}
		if b := sel.Statuses()[0].Backoff; b != last {
			growth = append(growth, b)
			last = b
		}
	}
	want := []int64{2, 4, 8, 16}
	if len(growth) != len(want) {
		t.Fatalf("backoff growth = %v, want %v", growth, want)
	}
	for i := range want {
		if growth[i] != want[i] {
			t.Fatalf("backoff growth = %v, want %v", growth, want)
		}
	}
	// The geometric backoff must also bound the evaluation attempts: 200
	// allocations with backoff reach only ~15 rule evaluations, not 200.
	if p := sel.Panics(); p < 4 || p > 20 {
		t.Fatalf("panics = %d, want backoff-bounded (4..20)", p)
	}
	if sel.Statuses()[0].Status != StatusQuarantined {
		t.Fatalf("status = %v, want quarantined", sel.Statuses()[0].Status)
	}
}

// TestPanicBudgetDisablesSelector: past the selector-wide panic budget the
// whole selector degrades to defaults — fresh contexts are not evaluated
// at all.
func TestPanicBudgetDisablesSelector(t *testing.T) {
	prof := profiler.New()
	tbl := alloctx.NewTable()
	keyA := seedContext(prof, tbl, "guard.test:budgetA", 4, 1)
	keyB := seedContext(prof, tbl, "guard.test:budgetB", 4, 1)
	sel := New(prof, Options{MinEvidence: 1, PanicBudget: 2, QuarantineBackoff: 1})
	faults.ArmT(t, &faults.Plan{RuleEvalPanic: func() (any, bool) { return "persistent", true }})

	def := collections.Decision{Impl: spec.KindHashMap}
	for i := 0; i < 5; i++ {
		sel.Select(keyA, spec.KindHashMap, def)
	}
	disabled, msg := sel.Disabled()
	if !disabled {
		t.Fatalf("panic budget of 2 not tripped after %d panics", sel.Panics())
	}
	if !strings.Contains(msg, "persistent") {
		t.Fatalf("disable reason = %q, want the panic value", msg)
	}
	// A different, healthy context must not be evaluated any more.
	faults.Disarm()
	before := sel.Decides()
	for i := 0; i < 10; i++ {
		if got := sel.Select(keyB, spec.KindHashMap, def); got != def {
			t.Fatalf("disabled selector still replaced: %+v", got)
		}
	}
	if sel.Decides() != before {
		t.Fatal("disabled selector still evaluates rules")
	}
}

// TestCorruptSnapshotContained: a corrupted or vanished snapshot must
// degrade the context to its default, never crash or wedge the selector.
func TestCorruptSnapshotContained(t *testing.T) {
	// Vanished snapshot: the context decides default and stays healthy.
	prof := profiler.New()
	tbl := alloctx.NewTable()
	key := seedContext(prof, tbl, "guard.test:corrupt1", 4, 1)
	sel := New(prof, Options{MinEvidence: 1})
	faults.ArmT(t, &faults.Plan{CorruptSnapshot: func(uint64, any) any { return nil }})
	def := collections.Decision{Impl: spec.KindHashMap}
	if got := sel.Select(key, spec.KindHashMap, def); got != def {
		t.Fatalf("vanished snapshot produced a replacement: %+v", got)
	}
	if st := sel.Statuses()[0]; st.Status != StatusDefault {
		t.Fatalf("status = %v, want default", st.Status)
	}

	// Garbage values: NaN statistics fail every comparison, so the rules
	// decline and the default is kept — no panic escapes.
	prof2 := profiler.New()
	tbl2 := alloctx.NewTable()
	key2 := seedContext(prof2, tbl2, "guard.test:corrupt2", 4, 1)
	sel2 := New(prof2, Options{MinEvidence: 1})
	faults.Disarm() // explicit hand-off: Arm fails loudly over a live plan
	faults.ArmT(t, &faults.Plan{CorruptSnapshot: func(_ uint64, snap any) any {
		p, _ := snap.(*profiler.Profile)
		if p != nil {
			p.MaxSizeAvg = math.NaN()
			p.FinalSizeAvg = math.NaN()
			p.MaxSizeMax = math.Inf(1)
		}
		return p
	}})
	if got := sel2.Select(key2, spec.KindHashMap, def); got != def {
		t.Fatalf("NaN snapshot produced a replacement: %+v", got)
	}
}

// TestDecidingFlagReleasedOnPanic is the regression test for the
// deciding-flag leak: a panic during rule evaluation used to leave
// st.deciding set forever, silencing the context. The claim must be
// released on every exit path and the context must recover after the
// quarantine expires.
func TestDecidingFlagReleasedOnPanic(t *testing.T) {
	prof := profiler.New()
	tbl := alloctx.NewTable()
	key := seedContext(prof, tbl, "guard.test:leak", 4, 1)
	sel := New(prof, Options{MinEvidence: 1, PanicBudget: -1, QuarantineBackoff: 1})
	faults.ArmT(t, &faults.Plan{RuleEvalPanic: faults.PanicOnce("once", 1)})

	def := collections.Decision{Impl: spec.KindHashMap}
	if got := sel.Select(key, spec.KindHashMap, def); got != def {
		t.Fatalf("panicked evaluation produced a replacement: %+v", got)
	}
	v, _ := sel.state.Load(key)
	st := v.(*decisionState)
	st.mu.Lock()
	stuck := st.deciding
	st.mu.Unlock()
	if stuck {
		t.Fatal("deciding flag leaked after a contained panic")
	}
	// The fault fired once; after the one-allocation quarantine the next
	// crossing must re-decide successfully — a wedged claim would keep
	// returning the default forever.
	got := sel.Select(key, spec.KindHashMap, def)
	if got.Impl != spec.KindArrayMap {
		t.Fatalf("context wedged after contained panic: got %+v", got)
	}
}

// TestGuardedConcurrentPhaseShift hammers one context from several
// goroutines through a phase shift with sporadic injected panics — the
// -race harness for the guarded lifecycle. The selector must stay live:
// no wedged claims, a fresh allocation still works, and the counters are
// consistent.
func TestGuardedConcurrentPhaseShift(t *testing.T) {
	rt, sel, _ := runtimeWithSelector(Options{
		MinEvidence: 8, VerifyEvery: 8, MinWindowEvidence: 2, PanicBudget: -1,
	})
	faults.ArmT(t, &faults.Plan{RuleEvalPanic: faults.PanicOnce("sporadic", 2)})
	at := collections.At("guard.test:conc")

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				m := collections.NewHashMap[int, int](rt, at)
				n := 1
				if i >= 150 {
					n = 40 // phase shift: the premise of any small-map decision breaks
				}
				for j := 0; j < n; j++ {
					m.Put(j, g)
				}
				m.Free()
			}
		}()
	}
	wg.Wait()

	for _, cs := range sel.Statuses() {
		v, _ := sel.state.Load(cs.Context)
		st := v.(*decisionState)
		st.mu.Lock()
		stuck := st.deciding
		st.mu.Unlock()
		if stuck {
			t.Fatalf("context %d left with a wedged deciding claim", cs.Context)
		}
	}
	if disabled, msg := sel.Disabled(); disabled {
		t.Fatalf("unlimited budget selector disabled: %s", msg)
	}
	// Liveness after the dust settles.
	m := collections.NewHashMap[int, int](rt, at)
	m.Put(1, 1)
	if v, ok := m.Get(1); !ok || v != 1 {
		t.Fatal("selector left the runtime broken")
	}
	m.Free()
}
