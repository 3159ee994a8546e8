// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), plus ablations for the design decisions called out in
// DESIGN.md §5 and micro-benchmarks for each implementation pair a rule
// trades between. Run with:
//
//	go test -bench=. -benchmem
//
// Figure/table benches report custom metrics (minheap-bytes, improve-%,
// ...) alongside time; the timing comparisons of Fig. 7 are the benchmark
// times themselves.
package chameleon_test

import (
	"fmt"
	"testing"

	"chameleon/internal/adaptive"
	"chameleon/internal/advisor"
	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/core"
	"chameleon/internal/governor"
	"chameleon/internal/heap"
	"chameleon/internal/profiler"
	"chameleon/internal/spec"
	"chameleon/internal/workloads"
)

const benchScale = 120

func runWorkload(b *testing.B, name string, v workloads.Variant, cfg core.Config, scale int) *core.Session {
	b.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewSession(cfg)
	if spec.Run(s.Runtime(), v, scale) == 0 {
		b.Fatal("zero checksum")
	}
	s.FinalGC()
	return s
}

func profiledCfg() core.Config {
	return core.Config{Mode: alloctx.Static, GCThreshold: 64 << 10}
}

// seriesCfg is profiledCfg keeping every cycle's snapshot, for the Fig. 2 /
// Fig. 8 series.
func seriesCfg() core.Config {
	cfg := profiledCfg()
	cfg.KeepSnapshots = true
	return cfg
}

func plainCfg() core.Config {
	return core.Config{Mode: alloctx.Off, NoProfiling: true, GCThreshold: 64 << 10}
}

// BenchmarkFig2TVLAPotential regenerates the Fig. 2 series: profiled TVLA
// run with per-cycle collection statistics.
func BenchmarkFig2TVLAPotential(b *testing.B) {
	var points int
	for i := 0; i < b.N; i++ {
		s := runWorkload(b, "tvla", workloads.Baseline, seriesCfg(), benchScale)
		points = len(s.PotentialSeries())
	}
	b.ReportMetric(float64(points), "gc-cycles")
}

// BenchmarkFig3TopContexts regenerates the Fig. 3 report: profile TVLA and
// run the rule engine.
func BenchmarkFig3TopContexts(b *testing.B) {
	var suggestions int
	for i := 0; i < b.N; i++ {
		s := runWorkload(b, "tvla", workloads.Baseline, profiledCfg(), benchScale)
		rep, err := s.Report(advisor.Options{Top: 10})
		if err != nil {
			b.Fatal(err)
		}
		suggestions = len(rep.Suggestions)
	}
	b.ReportMetric(float64(suggestions), "suggestions")
}

// BenchmarkFig6MinHeap regenerates the Fig. 6 table: per benchmark and
// variant, the simulated minimal heap (reported as a metric).
func BenchmarkFig6MinHeap(b *testing.B) {
	for _, spec := range workloads.All() {
		for _, v := range []workloads.Variant{workloads.Baseline, workloads.Tuned} {
			spec, v := spec, v
			b.Run(spec.Name+"/"+v.String(), func(b *testing.B) {
				var minheap int64
				var gcs int
				for i := 0; i < b.N; i++ {
					s := runWorkload(b, spec.Name, v, profiledCfg(), benchScale)
					minheap = s.Heap.MinimalHeap()
					gcs = s.Heap.Stats().NumGC
				}
				b.ReportMetric(float64(minheap), "minheap-bytes")
				b.ReportMetric(float64(gcs), "gc-cycles")
			})
		}
	}
}

// BenchmarkFig7RunTime regenerates the Fig. 7 comparison: the plain
// (unprofiled) run time of each benchmark variant — the benchmark time
// itself is the measurement.
func BenchmarkFig7RunTime(b *testing.B) {
	for _, spec := range workloads.All() {
		for _, v := range []workloads.Variant{workloads.Baseline, workloads.Tuned} {
			spec, v := spec, v
			b.Run(spec.Name+"/"+v.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runWorkload(b, spec.Name, v, plainCfg(), benchScale)
				}
			})
		}
	}
}

// BenchmarkFig8BloatSpike regenerates the Fig. 8 series and reports the
// spike height (peak collection share of live data).
func BenchmarkFig8BloatSpike(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		s := runWorkload(b, "bloat", workloads.Baseline, seriesCfg(), benchScale)
		peak = 0
		for _, p := range s.PotentialSeries() {
			if p.LivePct > peak {
				peak = p.LivePct
			}
		}
	}
	b.ReportMetric(peak, "peak-coll-%")
}

// BenchmarkSweepAdaptive regenerates the §2.3 threshold sweep: TVLA with
// SizeAdaptingMaps at each conversion threshold.
func BenchmarkSweepAdaptive(b *testing.B) {
	for _, thr := range []int{2, 4, 8, 13, 16, 32} {
		thr := thr
		b.Run(fmt.Sprintf("threshold=%d", thr), func(b *testing.B) {
			var minheap int64
			for i := 0; i < b.N; i++ {
				s := core.NewSession(plainCfg())
				if workloads.RunTVLAAdaptive(s.Runtime(), thr, benchScale) == 0 {
					b.Fatal("zero checksum")
				}
				s.FinalGC()
				minheap = s.Heap.MinimalHeap()
			}
			b.ReportMetric(float64(minheap), "minheap-bytes")
		})
	}
}

// BenchmarkAutoOverhead regenerates the §5.4 comparison: each benchmark
// under (a) the plain runtime, (b) the fully-automatic mode (dynamic
// context capture + profiling + online replacement, with the guarded
// verification of docs/ROBUSTNESS.md on at its defaults), and (c) the same
// with verification disabled — the auto vs auto-unguarded gap is the price
// of outcome verification.
func BenchmarkAutoOverhead(b *testing.B) {
	autoCfg := core.Config{
		Mode:          alloctx.Dynamic,
		Online:        true,
		OnlineOptions: adaptive.Options{MinEvidence: 32},
		GCThreshold:   64 << 10,
	}
	unguardedCfg := autoCfg
	unguardedCfg.OnlineOptions = adaptive.Options{MinEvidence: 32, VerifyEvery: -1}
	for _, name := range []string{"tvla", "pmd"} {
		name := name
		b.Run(name+"/plain", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runWorkload(b, name, workloads.Baseline, plainCfg(), benchScale)
			}
		})
		b.Run(name+"/auto", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runWorkload(b, name, workloads.Baseline, autoCfg, benchScale)
			}
		})
		b.Run(name+"/auto-unguarded", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runWorkload(b, name, workloads.Baseline, unguardedCfg, benchScale)
			}
		})
		// The ahead-of-time endpoint: decided sites committed to fixed
		// constructors, run on the plain runtime — what remains after
		// chameleon-apply retires the profiling machinery.
		b.Run(name+"/specialized", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runWorkload(b, name, workloads.Specialized, plainCfg(), benchScale)
			}
		})
	}
}

// BenchmarkGovernorTiers measures what each rung of the degradation
// ladder costs — and buys — on the contextstorm workload: the ungoverned
// baseline (no meter wired in), then a metered session forced to each
// tier via SetProfilingTier. The full→off spread is the fidelity range
// the overhead governor trades across (docs/ROBUSTNESS.md).
func BenchmarkGovernorTiers(b *testing.B) {
	const stormScale = 30
	b.Run("unmetered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := core.NewSession(core.Config{GCThreshold: 64 << 10})
			if workloads.RunContextStorm(s.Runtime(), workloads.Baseline, stormScale) == 0 {
				b.Fatal("zero checksum")
			}
		}
	})
	tiers := []struct {
		name string
		tier governor.Tier
		rate int
	}{
		{"full", governor.TierFull, 1},
		{"sampled-8", governor.TierSampled, 8},
		{"heap-only", governor.TierHeapOnly, 1},
		{"off", governor.TierOff, 1},
	}
	for _, tc := range tiers {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := core.NewSession(core.Config{
					GCThreshold:    64 << 10,
					OverheadBudget: 0.05, // wires the meter; ticking stays manual
				})
				s.Runtime().SetProfilingTier(tc.tier, tc.rate)
				if workloads.RunContextStorm(s.Runtime(), workloads.Baseline, stormScale) == 0 {
					b.Fatal("zero checksum")
				}
			}
		})
	}
}

// --- Ablation 1 (DESIGN.md §5): allocation-context capture cost. ---

func BenchmarkContextCapture(b *testing.B) {
	bench := func(b *testing.B, cfg collections.Config) {
		rt := collections.NewRuntime(cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l := collections.NewArrayList[int](rt, collections.At("site:1"))
			l.Add(i)
			l.Free()
		}
	}
	b.Run("off", func(b *testing.B) {
		bench(b, collections.Config{Mode: alloctx.Off})
	})
	b.Run("static", func(b *testing.B) {
		bench(b, collections.Config{Mode: alloctx.Static, Profiler: profiler.New()})
	})
	b.Run("dynamic", func(b *testing.B) {
		bench(b, collections.Config{Mode: alloctx.Dynamic, Profiler: profiler.New()})
	})
	b.Run("dynamic-sampled-16", func(b *testing.B) {
		bench(b, collections.Config{Mode: alloctx.Dynamic, SampleRate: 16, Profiler: profiler.New()})
	})
}

// --- Ablation 2: partial-context depth (§3.2.1). ---

func BenchmarkContextDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 3, 8} {
		depth := depth
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			rt := collections.NewRuntime(collections.Config{
				Mode: alloctx.Dynamic, Depth: depth, Profiler: profiler.New(),
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := collections.NewArrayList[int](rt)
				l.Add(i)
				l.Free()
			}
		})
	}
}

// --- Ablation 3: per-instance tracking (ObjectContextInfo) cost (§4.4). ---

func BenchmarkPerInstanceTracking(b *testing.B) {
	run := func(b *testing.B, rt *collections.Runtime) {
		for i := 0; i < b.N; i++ {
			m := collections.NewHashMap[int, int](rt, collections.At("t:1"))
			for k := 0; k < 8; k++ {
				m.Put(k, k)
			}
			for k := 0; k < 32; k++ {
				m.Get(k % 8)
			}
			m.Free()
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, collections.NewRuntime(collections.Config{}))
	})
	b.Run("trace-only", func(b *testing.B) {
		run(b, collections.NewRuntime(collections.Config{
			Mode: alloctx.Static, Profiler: profiler.New(),
		}))
	})
	b.Run("trace-and-heap", func(b *testing.B) {
		prof := profiler.New()
		h := heap.New(heap.Config{GCThreshold: 1 << 30, Observer: prof})
		run(b, collections.NewRuntime(collections.Config{
			Mode: alloctx.Static, Profiler: prof, Heap: h,
		}))
	})
}

// --- Ablation 4: GC semantic-map walk cost vs live-set size (§4.3). ---

func BenchmarkGCSemanticWalk(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		n := n
		b.Run(fmt.Sprintf("live=%d", n), func(b *testing.B) {
			h := heap.New(heap.Config{GCThreshold: 1 << 40})
			rt := collections.NewRuntime(collections.Config{Heap: h})
			for i := 0; i < n; i++ {
				m := collections.NewHashMap[int, int](rt)
				m.Put(i, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.GC()
			}
		})
	}
}

// --- Micro-benchmarks: the implementation pairs the rules trade between. ---

func BenchmarkMapGet(b *testing.B) {
	for _, size := range []int{4, 16, 64} {
		for _, kind := range []spec.Kind{spec.KindHashMap, spec.KindOpenHashMap, spec.KindArrayMap} {
			size, kind := size, kind
			b.Run(fmt.Sprintf("%v/n=%d", kind, size), func(b *testing.B) {
				m := collections.NewHashMap[int, int](collections.Plain(), collections.Impl(kind), collections.Cap(size))
				for i := 0; i < size; i++ {
					m.Put(i, i)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := m.Get(i % size); !ok {
						b.Fatal("miss")
					}
				}
			})
		}
	}
	// Profiled variant: the same hot Get loop with trace profiling and heap
	// simulation on — the per-read cost of semantic profiling (§5.4).
	for _, size := range []int{16} {
		size := size
		b.Run(fmt.Sprintf("profiled/n=%d", size), func(b *testing.B) {
			prof := profiler.New()
			h := heap.New(heap.Config{GCThreshold: 1 << 30, Observer: prof})
			rt := collections.NewRuntime(collections.Config{Mode: alloctx.Static, Profiler: prof, Heap: h})
			m := collections.NewHashMap[int, int](rt, collections.At("bench:mapget"), collections.Cap(size))
			for i := 0; i < size; i++ {
				m.Put(i, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := m.Get(i % size); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

func BenchmarkSetContains(b *testing.B) {
	for _, size := range []int{4, 16, 64} {
		for _, kind := range []spec.Kind{spec.KindHashSet, spec.KindOpenHashSet, spec.KindArraySet} {
			size, kind := size, kind
			b.Run(fmt.Sprintf("%v/n=%d", kind, size), func(b *testing.B) {
				s := collections.NewHashSet[int](collections.Plain(), collections.Impl(kind), collections.Cap(size))
				for i := 0; i < size; i++ {
					s.Add(i)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !s.Contains(i % size) {
						b.Fatal("miss")
					}
				}
			})
		}
	}
}

func BenchmarkListAppend(b *testing.B) {
	for _, kind := range []spec.Kind{spec.KindArrayList, spec.KindLinkedList, spec.KindSinglyLinkedList, spec.KindLazyArrayList} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l := collections.NewArrayList[int](collections.Plain(), collections.Impl(kind))
				for k := 0; k < 64; k++ {
					l.Add(k)
				}
				l.Free()
			}
		})
	}
	// Profiled variant: the same append loop with trace profiling and heap
	// simulation on — the per-mutation cost of semantic profiling (§5.4).
	b.Run("profiled", func(b *testing.B) {
		prof := profiler.New()
		h := heap.New(heap.Config{GCThreshold: 1 << 30, Observer: prof})
		rt := collections.NewRuntime(collections.Config{Mode: alloctx.Static, Profiler: prof, Heap: h})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l := collections.NewArrayList[int](rt, collections.At("bench:listappend"))
			for k := 0; k < 64; k++ {
				l.Add(k)
			}
			l.Free()
		}
	})
	// Specialized variant: the same loop through a chameleon-apply fixed
	// constructor on the SAME fully-instrumented runtime. The site is
	// final, so allocation skips decide/install and every operation takes
	// the nil-instrument fast path — the per-site payoff of ahead-of-time
	// specialization must land within noise of the plain ArrayList row.
	b.Run("specialized", func(b *testing.B) {
		prof := profiler.New()
		h := heap.New(heap.Config{GCThreshold: 1 << 30, Observer: prof})
		rt := collections.NewRuntime(collections.Config{Mode: alloctx.Static, Profiler: prof, Heap: h})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l := collections.NewFixedArrayList[int](rt)
			for k := 0; k < 64; k++ {
				l.Add(k)
			}
			l.Free()
		}
	})
}

func BenchmarkListRandomAccess(b *testing.B) {
	for _, kind := range []spec.Kind{spec.KindArrayList, spec.KindLinkedList} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			l := collections.NewArrayList[int](collections.Plain(), collections.Impl(kind))
			for k := 0; k < 256; k++ {
				l.Add(k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if l.Get(i%256) != i%256 {
					b.Fatal("wrong element")
				}
			}
		})
	}
}

// --- Concurrent sessions: the server workload across worker counts. ---

// BenchmarkConcurrentServer measures one shared Session handling requests
// from 1/2/4/8/16 goroutines, under static and dynamic context capture,
// with and without the online selector. Throughput (req/s) should scale
// with workers now that the heap and profiler shard their locking and the
// selector serves decided contexts lock-free; the workers=1 rows double as
// the single-goroutine overhead check against the pre-sharding numbers,
// and allocs/op tracks the per-request allocation cost of the dynamic
// capture path.
func BenchmarkConcurrentServer(b *testing.B) {
	const scale = 60
	for _, mode := range []alloctx.Mode{alloctx.Static, alloctx.Dynamic} {
		for _, online := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4, 8, 16} {
				mode, online, workers := mode, online, workers
				name := fmt.Sprintf("%s/online=%v/workers=%d", mode, online, workers)
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					var requests int
					for i := 0; i < b.N; i++ {
						s := core.NewSession(core.Config{
							Mode:          mode,
							Online:        online,
							OnlineOptions: adaptive.Options{MinEvidence: 32},
							GCThreshold:   64 << 10,
						})
						if workloads.RunServerWorkers(s.Runtime(), workloads.Baseline, scale, workers) == 0 {
							b.Fatal("zero checksum")
						}
						s.FinalGC()
						requests += scale * 4
					}
					b.ReportMetric(float64(requests)/b.Elapsed().Seconds(), "req/s")
				})
			}
		}
	}
}

// BenchmarkFrontendLatency measures the latency-SLO frontend workload:
// p50/p99/p999 request latency (µs) and throughput with the selector off
// (baseline) and on (online); the shared structures sit behind client
// mutexes either way. The checksum metric is the schedule-independent
// result folded to 32 bits; every row must report the same value.
func BenchmarkFrontendLatency(b *testing.B) {
	const scale = 120
	run := func(b *testing.B, online bool, workers int) {
		b.ReportAllocs()
		var last workloads.FrontendResult
		var requests int
		for i := 0; i < b.N; i++ {
			s := core.NewSession(core.Config{
				Mode:          alloctx.Static,
				Online:        online,
				OnlineOptions: adaptive.Options{MinEvidence: 4},
				GCThreshold:   64 << 10,
			})
			last = workloads.FrontendRun(s.Runtime(), scale, workers)
			if last.Checksum == 0 {
				b.Fatal("zero checksum")
			}
			s.FinalGC()
			requests += last.Requests
		}
		b.ReportMetric(float64(last.P50.Microseconds()), "p50-us")
		b.ReportMetric(float64(last.P99.Microseconds()), "p99-us")
		b.ReportMetric(float64(last.P999.Microseconds()), "p999-us")
		b.ReportMetric(float64(requests)/b.Elapsed().Seconds(), "req/s")
		b.ReportMetric(float64(uint32(last.Checksum>>32)^uint32(last.Checksum)), "checksum32")
	}
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("baseline/workers=%d", workers), func(b *testing.B) {
			run(b, false, workers)
		})
		b.Run(fmt.Sprintf("online/workers=%d", workers), func(b *testing.B) {
			run(b, true, workers)
		})
	}
}

// BenchmarkFrontendTiers crosses the governor's degradation ladder with
// the latency-SLO frontend workload: what does each profiling tier cost
// in tail latency on a request-serving process? Where
// BenchmarkGovernorTiers prices the tiers in throughput on contextstorm,
// this one prices them in p50/p99/p999 — the number a fleet operator
// weighs before leaving full-fidelity profiling on in production versus
// relying on fleet snapshots merged from sampled peers (docs/FLEET.md).
func BenchmarkFrontendTiers(b *testing.B) {
	const scale = 120
	const workers = 4
	tiers := []struct {
		name string
		tier governor.Tier
		rate int
	}{
		{"full", governor.TierFull, 1},
		{"sampled-8", governor.TierSampled, 8},
		{"heap-only", governor.TierHeapOnly, 1},
		{"off", governor.TierOff, 1},
	}
	for _, tc := range tiers {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var last workloads.FrontendResult
			var requests int
			for i := 0; i < b.N; i++ {
				s := core.NewSession(core.Config{
					Mode:           alloctx.Static,
					GCThreshold:    64 << 10,
					OverheadBudget: 0.05, // wires the meter; ticking stays manual
				})
				s.Runtime().SetProfilingTier(tc.tier, tc.rate)
				last = workloads.FrontendRun(s.Runtime(), scale, workers)
				if last.Checksum == 0 {
					b.Fatal("zero checksum")
				}
				s.FinalGC()
				requests += last.Requests
			}
			b.ReportMetric(float64(last.P50.Microseconds()), "p50-us")
			b.ReportMetric(float64(last.P99.Microseconds()), "p99-us")
			b.ReportMetric(float64(last.P999.Microseconds()), "p999-us")
			b.ReportMetric(float64(requests)/b.Elapsed().Seconds(), "req/s")
			b.ReportMetric(float64(uint32(last.Checksum>>32)^uint32(last.Checksum)), "checksum32")
		})
	}
}

// BenchmarkRuleEvaluation measures the rule engine itself over a profiled
// snapshot (the per-report cost of the Table 2 rule set).
func BenchmarkRuleEvaluation(b *testing.B) {
	s := runWorkload(b, "tvla", workloads.Baseline, profiledCfg(), benchScale)
	profiles := s.Prof.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := advisor.Advise(profiles, advisor.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(profiles)), "contexts")
}
