package adaptive

import (
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/spec"
)

// decidedSelector returns a selector with one context already decided
// (HashMap -> ArrayMap), the steady state every allocation after the
// decision goes through.
func decidedSelector(b *testing.B) (*Selector, *alloctx.Context) {
	b.Helper()
	rt, sel, _ := runtimeWithSelector(Options{MinEvidence: 4, VerifyEvery: -1})
	var ctx *alloctx.Context
	for i := 0; i < 6; i++ {
		m := collections.NewHashMap[int, int](rt, At())
		ctx = rt.Contexts().Lookup(m.ContextKey())
		for j := 0; j < 5; j++ {
			m.Put(j, j)
		}
		for j := 0; j < 50; j++ {
			m.Get(j % 5)
		}
		m.Free()
	}
	if len(sel.Decisions()) == 0 {
		b.Fatal("context never decided")
	}
	return sel, ctx
}

// BenchmarkSelectDecided measures the per-allocation cost of Select once a
// context has been decided — the path every allocation from a hot context
// takes for the rest of the run. This is the contention source the
// concurrent-server benchmark exposed: before the lock-free fast path,
// every one of these calls took the context's mutex.
func BenchmarkSelectDecided(b *testing.B) {
	def := collections.Decision{Impl: spec.KindHashMap, Capacity: 16}
	b.Run("serial", func(b *testing.B) {
		sel, ctx := decidedSelector(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sel.Select(ctx, spec.KindHashMap, def)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		sel, ctx := decidedSelector(b)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				sel.Select(ctx, spec.KindHashMap, def)
			}
		})
	})
}
