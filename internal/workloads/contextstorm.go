package workloads

import (
	"fmt"

	"chameleon/internal/collections"
)

// Contextstorm is the adversarial counterpart of the paper's six subjects:
// a program whose allocation-context cardinality grows without bound.
// The paper's profiler assumes a modest set of allocation sites (§3.1);
// code generators, plugin hosts and template engines break that assumption
// by minting fresh contexts forever. Unbounded contexts mean unbounded
// profiling memory — unless the context budget (core.Config.MaxContexts,
// docs/ROBUSTNESS.md "Budgets") holds: with a budget below the storm's
// cardinality the profiler must stay bounded while the workload's checksum
// is untouched, because profiling is passive and a denied admission only
// attributes the allocation to the overflow context.
//
// The storm mixes a Zipf-flavoured hot set (16 contexts, ~60% of traffic),
// a warm set (256 contexts, ~25%), and a cold tail of never-repeating
// contexts (~15%) — so the budget fills early and every later first
// capture is denied: each admitted context keeps exact statistics while
// the traffic of the rest lands in the overflow context.
//
// Determinism under concurrency: like the server workload, each iteration
// derives everything from a PRNG seeded by its own index and per-iteration
// checksums combine with XOR, so RunContextStormWorkers(…, w) returns the
// same checksum for every w — and for every budget and profiling tier.

// ContextStormSpec describes the contextstorm workload. Like the server
// workload it is not part of All() (Fig. 6/7 cover the paper's six
// subjects) but is available to tests, benchmarks, and the CLI.
var ContextStormSpec = Spec{
	Name:         "contextstorm",
	Description:  "adversarial unbounded context cardinality: Zipfian hot set + never-repeating cold tail",
	Run:          RunContextStorm,
	DefaultScale: 150,
}

// stormIterationsPerScale converts the scale knob into iterations.
const stormIterationsPerScale = 32

// stormHotContexts / stormWarmContexts are the recurring context sets.
const (
	stormHotContexts  = 16
	stormWarmContexts = 256
)

// StormColdContexts reports how many distinct cold-tail contexts a run at
// the given scale mints, so tests can size budgets below the storm's
// cardinality.
func StormColdContexts(scale int) int {
	total := scale * stormIterationsPerScale
	cold := 0
	for i := 0; i < total; i++ {
		rng := newRand(uint64(i)*0xA24BAED4963EE407 + 0x9FB21C651E98DF25)
		// The class is the iteration PRNG's first draw (see stormContext),
		// so replaying just that draw keeps this count in lockstep.
		if d := rng.intn(100); d >= 85 {
			cold++
		}
	}
	return cold
}

// RunContextStorm drives the storm on a single goroutine.
func RunContextStorm(rt *collections.Runtime, v Variant, scale int) uint64 {
	return RunContextStormWorkers(rt, v, scale, 1)
}

// RunContextStormWorkers runs scale*stormIterationsPerScale iterations split
// across the given number of workers, all sharing rt. The checksum is
// schedule-independent and equals the single-worker result for any worker
// count.
func RunContextStormWorkers(rt *collections.Runtime, v Variant, scale, workers int) uint64 {
	return xorWorkers(scale*stormIterationsPerScale, workers, func(i uint64) uint64 { return stormIteration(rt, v, i) })
}

// stormContext picks the iteration's allocation context: hot, warm, or a
// never-repeated cold label. The first PRNG draw decides the class so
// StormColdContexts can replay the choice.
func stormContext(rng *xorshift, i uint64) collections.Option {
	switch d := rng.intn(100); {
	case d < 60:
		return collections.At(fmt.Sprintf("storm.Hot.handle%02d:10;storm.Dispatch.run:31", rng.intn(stormHotContexts)))
	case d < 85:
		return collections.At(fmt.Sprintf("storm.Warm.visit%03d:22;storm.Dispatch.run:31", rng.intn(stormWarmContexts)))
	default:
		// The cold tail: a context that will never be seen again, the way a
		// code generator mints one allocation site per generated class.
		return collections.At(fmt.Sprintf("storm.Gen.alloc%d:7;storm.Dispatch.run:31", i))
	}
}

// stormIteration allocates one small collection in the chosen context,
// exercises it, and folds the values into the iteration checksum. The
// result is a pure function of the iteration index.
func stormIteration(rt *collections.Runtime, v Variant, i uint64) uint64 {
	rng := newRand(i*0xA24BAED4963EE407 + 0x9FB21C651E98DF25)
	ctx := stormContext(rng, i)
	sum := i + 1

	n := 2 + rng.intn(6)
	if rng.intn(2) == 0 {
		var l *collections.List[int]
		if v == Tuned {
			l = collections.NewArrayList[int](rt, ctx, collections.Cap(n))
		} else {
			l = collections.NewArrayList[int](rt, ctx)
		}
		for j := 0; j < n; j++ {
			l.Add(rng.intn(1 << 14))
		}
		l.Each(func(x int) bool {
			sum = mix(sum, uint64(x))
			return true
		})
		l.Free()
	} else {
		var m *collections.Map[int, int]
		if v == Tuned {
			m = collections.NewArrayMap[int, int](rt, ctx, collections.Cap(n))
		} else {
			m = collections.NewHashMap[int, int](rt, ctx)
		}
		for j := 0; j < n; j++ {
			m.Put(j, rng.intn(1<<14))
		}
		for j := 0; j < 2*n; j++ {
			if val, ok := m.Get(j % (n + 1)); ok {
				sum = mix(sum, uint64(val))
			}
		}
		m.Free()
	}
	return sum
}
