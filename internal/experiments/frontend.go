package experiments

import (
	"fmt"
	"strings"
	"time"

	"chameleon/internal/adaptive"
	"chameleon/internal/alloctx"
	"chameleon/internal/core"
	"chameleon/internal/workloads"
)

// FrontendRow is one configuration of the latency-SLO frontend experiment:
// a backing strategy at a worker count, with the tail-latency quantiles an
// SLO cares about next to throughput. Checksum must be identical across
// every row — the concurrent backings may change scheduling, never results.
type FrontendRow struct {
	Strategy       string
	Workers        int
	P50, P99, P999 time.Duration
	Throughput     float64
	Checksum       uint64
}

// Frontend runs the frontend workload under three backing strategies —
// baseline (sequential backings behind the client's own mutex), tuned
// (concurrent-native backings chosen up front), and online (the selector
// discovers them mid-run from the cross-goroutine statistic) — at each
// worker count. reps repetitions are run per row and the one with the best
// p99 is kept.
func Frontend(scale int, workerCounts []int, reps int) ([]FrontendRow, error) {
	if scale <= 0 {
		scale = workloads.FrontendSpec.DefaultScale
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 4, 8}
	}
	if reps <= 0 {
		reps = 3
	}
	type strat struct {
		name    string
		variant workloads.Variant
		online  bool
	}
	strategies := []strat{
		{"baseline", workloads.Baseline, false},
		{"tuned", workloads.Tuned, false},
		{"online", workloads.Baseline, true},
	}
	var rows []FrontendRow
	var want uint64
	for _, workers := range workerCounts {
		for _, st := range strategies {
			best := workloads.FrontendResult{P99: 1<<62 - 1}
			for i := 0; i < reps; i++ {
				s := core.NewSession(core.Config{
					Mode:          alloctx.Static,
					Online:        st.online,
					OnlineOptions: adaptive.Options{MinEvidence: 4},
					GCThreshold:   64 << 10,
				})
				r := workloads.FrontendRun(s.Runtime(), st.variant, scale, workers, 0)
				s.FinalGC()
				if r.P99 < best.P99 {
					best = r
				}
			}
			if want == 0 {
				want = best.Checksum
			}
			if err := checkEquivalence("frontend-"+st.name, want, best.Checksum); err != nil {
				return nil, err
			}
			rows = append(rows, FrontendRow{
				Strategy:   st.name,
				Workers:    workers,
				P50:        best.P50,
				P99:        best.P99,
				P999:       best.P999,
				Throughput: best.Throughput,
				Checksum:   best.Checksum,
			})
		}
	}
	return rows, nil
}

// FormatFrontend renders the frontend latency table.
func FormatFrontend(rows []FrontendRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %10s %10s %10s %12s %18s\n",
		"strategy", "workers", "p50", "p99", "p999", "req/s", "checksum")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %10v %10v %10v %12.0f %#18x\n",
			r.Strategy, r.Workers, r.P50, r.P99, r.P999, r.Throughput, r.Checksum)
	}
	return b.String()
}
