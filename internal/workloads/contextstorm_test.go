package workloads

import (
	"testing"

	"chameleon/internal/core"
	"chameleon/internal/governor"
	"chameleon/internal/profiler"
)

// TestContextStormChecksumInvariantUnderBudget is the budget acceptance
// test: with a context budget far below the storm's cardinality, the
// workload checksum is identical to the unbounded run's (profiling stays
// passive under the budget), context tracking is bounded, the denied
// traffic is attributed to the overflow context, and every admitted
// context keeps exactly the statistics the unbounded run records for it.
func TestContextStormChecksumInvariantUnderBudget(t *testing.T) {
	const scale, budget = 40, 48
	run := func(maxContexts int) (uint64, *core.Session) {
		s := core.NewSession(core.Config{MaxContexts: maxContexts})
		sum := RunContextStorm(s.Runtime(), Baseline, scale)
		s.FinalGC()
		return sum, s
	}
	unbounded, su := run(0)
	bounded, sb := run(budget)
	if unbounded != bounded {
		t.Fatalf("budget changed the checksum: %#x != %#x", bounded, unbounded)
	}
	hu, hb := su.Health(), sb.Health()

	cold := StormColdContexts(scale)
	if cold < 100 {
		t.Fatalf("storm minted only %d cold contexts at scale %d — not a storm", cold, scale)
	}
	if hu.Budget.TableContexts < cold {
		t.Fatalf("unbounded run interned %d contexts, want >= %d cold", hu.Budget.TableContexts, cold)
	}
	if hb.Budget.TableContexts > budget+1 {
		t.Fatalf("bounded run interned %d contexts, want <= budget+overflow = %d", hb.Budget.TableContexts, budget+1)
	}
	if hb.Budget.ProfilerContexts > budget+1 {
		t.Fatalf("bounded run tracks %d profiler contexts, want <= %d", hb.Budget.ProfilerContexts, budget+1)
	}
	// contextstorm labels every site, so every profiler key is a table key.
	if p, n := sb.Prof.Contexts(), sb.Contexts.Len(); p > n {
		t.Fatalf("bounded run tracks %d profiler contexts, more than the %d interned", p, n)
	}
	if hb.Budget.TableOverflowAdmissions == 0 {
		t.Fatal("no denied admissions under a budget below the storm's cardinality")
	}
	if hb.Budget.OverflowAllocs != hb.Budget.TableOverflowAdmissions {
		t.Errorf("overflow context holds %d allocs, want one per denied admission (%d)",
			hb.Budget.OverflowAllocs, hb.Budget.TableOverflowAdmissions)
	}

	// Attribution is exact: an admitted context's profile under the budget
	// is the same as that context's profile in the unbounded run.
	want := make(map[uint64]*profiler.Profile)
	for _, p := range su.Prof.Snapshot() {
		want[p.Context.Key()] = p
	}
	overflow := sb.Contexts.Overflow().Key()
	admitted := 0
	for _, p := range sb.Prof.Snapshot() {
		key := p.Context.Key()
		if key == overflow {
			continue
		}
		admitted++
		u, ok := want[key]
		if !ok {
			t.Errorf("%s: profiled under the budget but absent from the unbounded run", p.Context)
			continue
		}
		if p.Allocs != u.Allocs || p.OpTotals != u.OpTotals {
			t.Errorf("%s: budgeted allocs=%d ops=%v, unbounded allocs=%d ops=%v",
				p.Context, p.Allocs, p.OpTotals, u.Allocs, u.OpTotals)
		}
	}
	if admitted != sb.Contexts.Len()-1 {
		t.Errorf("snapshot holds %d admitted contexts, table interned %d besides the overflow context",
			admitted, sb.Contexts.Len()-1)
	}
}

// TestContextStormScheduleIndependent: the concurrent storm returns the
// single-worker checksum for any worker count, budget or not, and the
// profiler never tracks more contexts than the table admitted.
func TestContextStormScheduleIndependent(t *testing.T) {
	const scale = 20
	want := func() uint64 {
		s := core.NewSession(core.Config{})
		return RunContextStorm(s.Runtime(), Baseline, scale)
	}()
	for _, workers := range []int{2, 4} {
		for _, budget := range []int{0, 32} {
			s := core.NewSession(core.Config{MaxContexts: budget})
			got := RunContextStormWorkers(s.Runtime(), Baseline, scale, workers)
			if got != want {
				t.Fatalf("workers=%d budget=%d checksum %#x, want %#x", workers, budget, got, want)
			}
			if p, n := s.Prof.Contexts(), s.Contexts.Len(); budget > 0 && p > n {
				t.Fatalf("workers=%d budget=%d: profiler tracks %d contexts, table interned %d", workers, budget, p, n)
			}
		}
	}
}

// TestContextStormVariantsAgree: tuned collection choices must not change
// the computed result (the §1 interchangeability requirement every
// workload obeys).
func TestContextStormVariantsAgree(t *testing.T) {
	const scale = 20
	run := func(v Variant) uint64 {
		s := core.NewSession(core.Config{})
		return RunContextStorm(s.Runtime(), v, scale)
	}
	if b, tu := run(Baseline), run(Tuned); b != tu {
		t.Fatalf("tuned variant changed the checksum: %#x != %#x", tu, b)
	}
}

// TestContextStormChecksumStableAcrossTiers: the degradation ladder sheds
// profiling fidelity, never workload behaviour — every tier computes the
// same checksum.
func TestContextStormChecksumStableAcrossTiers(t *testing.T) {
	const scale = 20
	var sums []uint64
	for tier := governor.TierFull; tier <= governor.TierOff; tier++ {
		s := core.NewSession(core.Config{})
		s.Runtime().SetProfilingTier(tier, 4)
		sums = append(sums, RunContextStorm(s.Runtime(), Baseline, scale))
	}
	for i, sum := range sums[1:] {
		if sum != sums[0] {
			t.Fatalf("tier %v checksum %#x differs from full tier's %#x",
				governor.Tier(i+1), sum, sums[0])
		}
	}
}
