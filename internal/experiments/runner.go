// Package experiments regenerates every figure and table of the paper's
// evaluation (§5): the TVLA potential series (Fig. 2), the top-context
// report (Fig. 3, §2.1), the minimal-heap improvements (Fig. 6), the
// running-time improvements (Fig. 7), the bloat spike (Fig. 8), the §2.3
// hybrid-threshold sweep, and the §5.4 fully-automatic-mode overhead.
// Each experiment returns structured rows and can render itself as text;
// EXPERIMENTS.md records paper-vs-measured for every row.
package experiments

import (
	"fmt"
	"slices"
	"time"

	"chameleon/internal/alloctx"
	"chameleon/internal/core"
	"chameleon/internal/heap"
	"chameleon/internal/workloads"
)

// RunResult is one workload execution under one configuration.
type RunResult struct {
	Workload    string
	Variant     workloads.Variant
	Checksum    uint64
	Stats       heap.Stats
	MinimalHeap int64
	Duration    time.Duration
	Session     *core.Session
}

// Run executes one workload variant in a fresh session and collects heap
// statistics and wall-clock duration.
func Run(spec workloads.Spec, v workloads.Variant, scale int, cfg core.Config) RunResult {
	s := core.NewSession(cfg)
	start := time.Now()
	sum := spec.Run(s.Runtime(), v, scale)
	dur := time.Since(start)
	s.FinalGC()
	return RunResult{
		Workload:    spec.Name,
		Variant:     v,
		Checksum:    sum,
		Stats:       s.Heap.Stats(),
		MinimalHeap: s.Heap.MinimalHeap(),
		Duration:    dur,
		Session:     s,
	}
}

// defaultConfig is the standard measurement configuration: static contexts
// (cheap capture), 256 KiB GC threshold for a dense cycle series.
func defaultConfig() core.Config {
	return core.Config{
		Mode:        alloctx.Static,
		GCThreshold: 64 << 10,
	}
}

// seriesConfig is defaultConfig keeping every cycle's statistics, for the
// Fig. 2 / Fig. 8 series and the Table 3 peak type breakdown.
func seriesConfig() core.Config {
	cfg := defaultConfig()
	cfg.KeepSnapshots = true
	return cfg
}

// timedConfig is the timing configuration: profiling off (the paper's
// before/after timing runs execute the plain program), GC threshold tied
// to the given heap budget — running "with the original minimal-heap size"
// (§5.2 step 6) means both variants get the same absolute heap budget, so
// a variant that allocates less collects less often.
func timedConfig(heapBudget int64) core.Config {
	thr := heapBudget / 4
	if thr < 64<<10 {
		thr = 64 << 10
	}
	return core.Config{
		Mode:        alloctx.Off,
		NoProfiling: true,
		GCThreshold: thr,
	}
}

// pairTiming is two sides timed against each other by timePairs.
type pairTiming struct {
	// A and B are each side's median duration across the pairs.
	A, B time.Duration
	// Lo and Hi bound the per-pair change of B against A, as
	// pctImprovement reports it (positive: B ran faster).
	Lo, Hi float64
	// LastA and LastB are each side's last run.
	LastA, LastB RunResult
}

// timePairs is the one timing method of the paper's time figures (Fig. 7,
// the §2.3 sweep and §5.4): it runs reps pairs (3 when reps <= 0), each
// running both sides once, and alternates which side goes first, so
// neither side always runs on a warmer or a cooler host.
func timePairs(reps int, a, b func() RunResult) pairTiming {
	if reps <= 0 {
		reps = 3
	}
	var t pairTiming
	da, db, deltas := make([]time.Duration, reps), make([]time.Duration, reps), make([]float64, reps)
	for i := range reps {
		if i%2 == 0 {
			t.LastA = a()
			t.LastB = b()
		} else {
			t.LastB = b()
			t.LastA = a()
		}
		da[i], db[i] = t.LastA.Duration, t.LastB.Duration
		deltas[i] = pctImprovement(float64(da[i]), float64(db[i]))
	}
	t.A, t.B = median(da), median(db)
	t.Lo, t.Hi = slices.Min(deltas), slices.Max(deltas)
	return t
}

// median reports the middle of ds (the mean of the middle two for an
// even count), reordering ds.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	n := len(ds)
	if n%2 == 1 {
		return ds[n/2]
	}
	return (ds[n/2-1] + ds[n/2]) / 2
}

// ms reports a duration in milliseconds, to the microsecond.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// pctRange renders a per-pair range of percentages as "[lo, hi]".
func pctRange(lo, hi float64) string { return fmt.Sprintf("[%+.1f, %+.1f]", lo, hi) }

// pctImprovement is 100*(base-after)/base, 0 when base is 0.
func pctImprovement(base, after float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - after) / base
}

// checkEquivalence returns an error when two variants of a workload
// computed different results — a violation of the interchangeability
// requirement that would invalidate the whole comparison.
func checkEquivalence(name string, base, tuned uint64) error {
	if base != tuned {
		return fmt.Errorf("experiments: %s: tuned variant changed the computed result (%#x vs %#x)", name, base, tuned)
	}
	return nil
}
