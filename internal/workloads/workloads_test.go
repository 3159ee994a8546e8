package workloads

import (
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/core"
	"chameleon/internal/heap"
)

const testScale = 60

func runInSession(t *testing.T, spec Spec, v Variant, scale int) (uint64, heap.Stats, *core.Session) {
	t.Helper()
	s := core.NewSession(core.Config{Mode: alloctx.Static, GCThreshold: 128 << 10})
	sum := spec.Run(s.Runtime(), v, scale)
	s.FinalGC()
	return sum, s.Heap.Stats(), s
}

// seriesSession runs spec's baseline in a session that keeps its per-cycle
// snapshots, for the Fig. 2 / Fig. 8 series.
func seriesSession(t *testing.T, spec Spec, scale int) *core.Session {
	t.Helper()
	s := core.NewSession(core.Config{Mode: alloctx.Static, GCThreshold: 128 << 10, KeepSnapshots: true})
	spec.Run(s.Runtime(), Baseline, scale)
	s.FinalGC()
	return s
}

func TestAllWorkloadsRegisteredAndResolvable(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("workloads = %d, want 6 (the paper's benchmarks)", len(all))
	}
	names := map[string]bool{}
	for _, s := range all {
		if s.Name == "" || s.Run == nil || s.DefaultScale <= 0 || s.Description == "" {
			t.Fatalf("incomplete spec: %+v", s)
		}
		names[s.Name] = true
		got, err := ByName(s.Name)
		if err != nil || got.Name != s.Name {
			t.Fatalf("ByName(%s): %v", s.Name, err)
		}
	}
	for _, want := range []string{"tvla", "bloat", "fop", "findbugs", "pmd", "soot"} {
		if !names[want] {
			t.Fatalf("missing workload %q", want)
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should error")
	}
}

// The central behavioural property: applying Chameleon's suggested
// collection replacements must not change any workload's computed result
// (the §1 interchangeability requirement).
func TestVariantsComputeIdenticalResults(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			base, _, _ := runInSession(t, spec, Baseline, testScale)
			tuned, _, _ := runInSession(t, spec, Tuned, testScale)
			if base != tuned {
				t.Fatalf("checksum diverged: baseline=%#x tuned=%#x", base, tuned)
			}
			specialized, _, _ := runInSession(t, spec, Specialized, testScale)
			if base != specialized {
				t.Fatalf("checksum diverged: baseline=%#x specialized=%#x", base, specialized)
			}
			if base == 0 {
				t.Fatalf("checksum is zero — workload did no observable work")
			}
		})
	}
}

// Workloads must release everything they allocate (the liveness protocol
// the simulated GC depends on).
func TestWorkloadsFreeEverything(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			_, _, s := runInSession(t, spec, Baseline, testScale)
			if n := s.Heap.LiveCollections(); n != 0 {
				t.Fatalf("%d collections leaked", n)
			}
			if b := s.Heap.LiveBytes(); b != 0 {
				t.Fatalf("%d bytes leaked", b)
			}
		})
	}
}

// Deterministic: the same variant twice gives the same checksum and the
// same peak heap.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			s1, st1, _ := runInSession(t, spec, Baseline, testScale)
			s2, st2, _ := runInSession(t, spec, Baseline, testScale)
			if s1 != s2 {
				t.Fatalf("checksums differ across runs")
			}
			if st1.PeakLive != st2.PeakLive {
				t.Fatalf("peak live differs: %d vs %d", st1.PeakLive, st2.PeakLive)
			}
		})
	}
}

// The Fig. 6 shapes: every workload except PMD shrinks its minimal heap
// when tuned; PMD's peak is dominated by long-lived stable structures and
// must stay roughly unchanged while its allocation volume drops.
func TestTunedShrinksMinimalHeap(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			_, bst, bs := runInSession(t, spec, Baseline, testScale)
			_, tst, ts := runInSession(t, spec, Tuned, testScale)
			bheap := bs.Heap.MinimalHeap()
			theap := ts.Heap.MinimalHeap()
			improvement := 100 * float64(bheap-theap) / float64(bheap)
			switch spec.Name {
			case "pmd":
				if improvement > 5 || improvement < -5 {
					t.Fatalf("pmd minimal heap should be ~unchanged, got %.1f%%", improvement)
				}
				if tst.TotalAllocated >= bst.TotalAllocated {
					t.Fatalf("pmd tuned must allocate less: %d vs %d", tst.TotalAllocated, bst.TotalAllocated)
				}
				if tst.NumGC >= bst.NumGC {
					t.Fatalf("pmd tuned must GC less: %d vs %d", tst.NumGC, bst.NumGC)
				}
			default:
				if improvement <= 0 {
					t.Fatalf("%s: tuned heap %d not smaller than baseline %d", spec.Name, theap, bheap)
				}
			}
		})
	}
}

// The headline result: TVLA's minimal heap roughly halves (paper: 53.95%).
func TestTVLAHeapRoughlyHalves(t *testing.T) {
	_, _, bs := runInSession(t, mustSpec(t, "tvla"), Baseline, 150)
	_, _, ts := runInSession(t, mustSpec(t, "tvla"), Tuned, 150)
	improvement := 100 * float64(bs.Heap.MinimalHeap()-ts.Heap.MinimalHeap()) / float64(bs.Heap.MinimalHeap())
	if improvement < 35 || improvement > 70 {
		t.Fatalf("tvla improvement = %.1f%%, want roughly half (paper 53.95%%)", improvement)
	}
}

// Fig. 2's shape: TVLA's live data is dominated by collections.
func TestTVLACollectionsDominateLiveData(t *testing.T) {
	s := seriesSession(t, mustSpec(t, "tvla"), 150)
	pts := s.PotentialSeries()
	if len(pts) == 0 {
		t.Fatal("no cycle series")
	}
	// Use the cycle with the most live data (the final cycle runs after
	// the workload released everything).
	peak := pts[0]
	for _, p := range pts {
		if p.LiveData > peak.LiveData {
			peak = p
		}
	}
	if peak.LivePct < 50 {
		t.Fatalf("collections %% of live = %.1f, want dominant (paper ~70%%)", peak.LivePct)
	}
	if !(peak.CorePct < peak.UsedPct && peak.UsedPct < peak.LivePct) {
		t.Fatalf("core < used < live violated: %+v", peak)
	}
}

// Fig. 8's shape: bloat has a mid-run spike of collection share.
func TestBloatSpike(t *testing.T) {
	s := seriesSession(t, mustSpec(t, "bloat"), 200)
	pts := s.PotentialSeries()
	if len(pts) < 6 {
		t.Fatalf("too few cycles: %d", len(pts))
	}
	var peak, first float64
	var peakIdx int
	for i, p := range pts {
		if p.LivePct > peak {
			peak, peakIdx = p.LivePct, i
		}
	}
	first = pts[0].LivePct
	lastQ := pts[len(pts)-1].LivePct
	if peak < first+10 || peak < lastQ+10 {
		t.Fatalf("no spike: first=%.1f peak=%.1f last=%.1f", first, peak, lastQ)
	}
	if peakIdx == 0 || peakIdx == len(pts)-1 {
		t.Fatalf("spike at the boundary (idx %d of %d), want mid-run", peakIdx, len(pts))
	}
	// At the spike, the empty lists' gap between live and used is large.
	spikePoint := pts[peakIdx]
	if spikePoint.LivePct-spikePoint.UsedPct < 10 {
		t.Fatalf("spike not dominated by unused collection bytes: live=%.1f used=%.1f",
			spikePoint.LivePct, spikePoint.UsedPct)
	}
}

func TestTVLAAdaptiveThresholds(t *testing.T) {
	// Threshold above the map size keeps the compact footprint; threshold
	// below it converts every map and forfeits the win (§2.3).
	run := func(thr int) int64 {
		s := core.NewSession(core.Config{Mode: alloctx.Static, GCThreshold: 128 << 10})
		sum := RunTVLAAdaptive(s.Runtime(), thr, 100)
		if sum == 0 {
			t.Fatal("zero checksum")
		}
		return s.Heap.MinimalHeap()
	}
	big := run(16)  // > tvlaMapSize: stays array
	small := run(4) // < tvlaMapSize: converts to hash
	if big >= small {
		t.Fatalf("threshold 16 heap (%d) should beat threshold 4 (%d)", big, small)
	}
	// And matches the checksum of plain runs.
	s := core.NewSession(core.Config{Mode: alloctx.Static})
	plain := RunTVLA(s.Runtime(), Baseline, 100)
	s2 := core.NewSession(core.Config{Mode: alloctx.Static})
	adaptive := RunTVLAAdaptive(s2.Runtime(), 16, 100)
	if plain != adaptive {
		t.Fatal("adaptive variant changed the computed result")
	}
}

// Workloads also run without any heap/profiling (plain library use).
func TestWorkloadsRunPlain(t *testing.T) {
	for _, spec := range All() {
		sum := spec.Run(collections.Plain(), Baseline, 20)
		if sum == 0 {
			t.Fatalf("%s: zero checksum on plain runtime", spec.Name)
		}
	}
}

func mustSpec(t *testing.T, name string) Spec {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestVariantString(t *testing.T) {
	if Baseline.String() != "baseline" || Tuned.String() != "tuned" || Specialized.String() != "specialized" {
		t.Fatal("variant names wrong")
	}
}
