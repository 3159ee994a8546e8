package core

import (
	"encoding/json"
	"testing"
	"time"

	"chameleon/internal/collections"
	"chameleon/internal/faults"
	"chameleon/internal/governor"
)

// TestSessionHealthBudget: Health reports the budget position after a run
// that overflows it, and the snapshot marshals for -health-out.
func TestSessionHealthBudget(t *testing.T) {
	s := NewSession(Config{MaxContexts: 4})
	rt := s.Runtime()
	for i := 0; i < 64; i++ {
		at := collections.At("health.hot:1")
		if i%2 == 1 {
			at = collections.At(randLabel(i))
		}
		l := collections.NewArrayList[int](rt, at)
		l.Add(i)
		l.Free()
	}
	s.FinalGC()

	h := s.Health()
	if h.Tier != governor.TierFull {
		t.Fatalf("ungoverned session tier = %v, want full", h.Tier)
	}
	if h.Governor != nil {
		t.Fatal("ungoverned session carries a governor health block")
	}
	if h.Budget.MaxContexts != 4 {
		t.Fatalf("budget = %d, want 4", h.Budget.MaxContexts)
	}
	if h.Budget.TableContexts > 5 {
		t.Fatalf("table contexts = %d, want <= budget+overflow = 5", h.Budget.TableContexts)
	}
	if h.Budget.TableOverflowAdmissions == 0 {
		t.Fatal("no denials recorded past the budget")
	}
	if h.Budget.OverflowAllocs != h.Budget.TableOverflowAdmissions {
		t.Fatalf("overflow allocs = %d, want one per denied admission (%d)",
			h.Budget.OverflowAllocs, h.Budget.TableOverflowAdmissions)
	}
	if h.Budget.ProfilerContexts > h.Budget.TableContexts {
		t.Fatalf("profiler tracks %d contexts, more than the %d interned",
			h.Budget.ProfilerContexts, h.Budget.TableContexts)
	}
	if _, err := json.Marshal(h); err != nil {
		t.Fatalf("health snapshot does not marshal: %v", err)
	}
}

// randLabel derives a unique static label from i (helper, no PRNG needed).
func randLabel(i int) string {
	return "health.cold:" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + ":7"
}

// TestSessionGovernorDegradesAndPauses: an injected overhead spike steps
// the governed session down the ladder; the runtime tier follows, the
// online selector pauses in heap-only, and recovery resumes it.
func TestSessionGovernorDegradesAndPauses(t *testing.T) {
	var spike int64
	faults.ArmT(t, &faults.Plan{OverheadSpike: func(src string, d int64) (int64, bool) {
		return d + spike, true
	}})
	s := NewSession(Config{
		Online:         true,
		OverheadBudget: 0.05,
		GovernorOptions: governor.Config{
			RecoverTicks: 1, SampledRate: 8, MaxSampledRate: 8,
		},
	})
	const tick = 100 * time.Millisecond

	spike = int64(0.20 * float64(tick.Nanoseconds())) // 20% >> 5% target
	s.Governor.Tick(tick)
	if got := s.Runtime().ProfilingTier(); got != governor.TierSampled {
		t.Fatalf("runtime tier = %v after one breach, want sampled", got)
	}
	if s.Selector.Paused() {
		t.Fatal("selector paused in the sampled tier")
	}
	s.Governor.Tick(tick)
	if got := s.Runtime().ProfilingTier(); got != governor.TierHeapOnly {
		t.Fatalf("runtime tier = %v after two breaches, want heap-only", got)
	}
	if !s.Selector.Paused() {
		t.Fatal("selector not paused in the heap-only tier")
	}
	s.Governor.Tick(tick)
	if got := s.Health().Tier; got != governor.TierOff {
		t.Fatalf("health tier = %v after three breaches, want off", got)
	}

	// In the off tier allocations carry no profiling at all, but still work.
	rt := s.Runtime()
	l := collections.NewArrayList[int](rt, collections.At("gov.off:1"))
	l.Add(1)
	l.Free()
	if live := s.Prof.LiveInstances(); live != 0 {
		t.Fatalf("off-tier allocation left %d live instances", live)
	}

	spike = 0
	for i := 0; i < 3; i++ {
		s.Governor.Tick(tick)
	}
	if got := s.Runtime().ProfilingTier(); got != governor.TierFull {
		t.Fatalf("runtime tier = %v after sustained calm, want full", got)
	}
	if s.Selector.Paused() {
		t.Fatal("selector still paused after recovery to full")
	}
	h := s.Health()
	if h.Governor == nil || h.Governor.TransitionCount != 6 {
		t.Fatalf("governor health = %+v, want 6 transitions", h.Governor)
	}
}

// TestSessionStartStopGovernor: the wall-clock ticker path works through
// the session wrappers and is a no-op on ungoverned sessions.
func TestSessionStartStopGovernor(t *testing.T) {
	plain := NewSession(Config{})
	plain.StartGovernor(time.Millisecond) // no governor: must not panic
	plain.StopGovernor()

	gov := NewSession(Config{OverheadBudget: 0.05})
	gov.StartGovernor(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	gov.StopGovernor()
	if h := gov.Health(); h.Governor == nil || h.Governor.Ticks == 0 {
		t.Fatalf("governed session never ticked: %+v", h.Governor)
	}
}
