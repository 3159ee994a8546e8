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

// measureTime runs a variant reps times under the timing configuration and
// reports the minimum duration (and checks the checksum).
func measureTime(spec workloads.Spec, v workloads.Variant, scale int, heapBudget int64, reps int) (time.Duration, uint64) {
	best := time.Duration(1<<62 - 1)
	var sum uint64
	for i := 0; i < reps; i++ {
		r := Run(spec, v, scale, timedConfig(heapBudget))
		if r.Duration < best {
			best = r.Duration
		}
		sum = r.Checksum
	}
	return best, sum
}

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
