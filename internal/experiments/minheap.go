package experiments

import (
	"fmt"

	"chameleon/internal/core"
	"chameleon/internal/heap"
	"chameleon/internal/workloads"
)

// MinHeapSearch makes the paper's minimal-heap metric operational: it
// binary-searches for the smallest hard heap limit under which the
// workload completes without an out-of-memory failure (§5.2 step 6
// "evaluate ... the minimal-heap size required to run the program"), and
// verifies it equals the peak-live measurement the Fig. 6 harness uses.
type MinHeapSearch struct {
	Workload string
	Variant  workloads.Variant
	// PeakLive is the high-water mark measured by an unlimited run.
	PeakLive int64
	// MinimalLimit is the smallest limit found by the search.
	MinimalLimit int64
	// Probes is the number of limited runs the search performed.
	Probes int
}

// runWithLimit runs the workload under a hard heap limit, reporting
// whether it completed.
func runWithLimit(spec workloads.Spec, v workloads.Variant, scale int, limit int64) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(heap.OOMError); ok {
				completed = false
				return
			}
			panic(r)
		}
	}()
	s := core.NewSession(core.Config{
		NoProfiling: true,
		GCThreshold: 1 << 30,
		Limit:       limit,
	})
	spec.Run(s.Runtime(), v, scale)
	return true
}

// SearchMinHeap performs the binary search.
func SearchMinHeap(name string, v workloads.Variant, scale int) (MinHeapSearch, error) {
	spec, err := workloads.ByName(name)
	if err != nil {
		return MinHeapSearch{}, err
	}
	if scale <= 0 {
		scale = spec.DefaultScale
	}
	res := MinHeapSearch{Workload: name, Variant: v}
	base := Run(spec, v, scale, core.Config{NoProfiling: true, GCThreshold: 1 << 30})
	res.PeakLive = base.Stats.PeakLive

	lo, hi := int64(0), res.PeakLive // completing at hi is guaranteed
	align := base.Session.Heap.Model().Align
	for lo+align < hi {
		mid := (lo + hi) / 2
		res.Probes++
		if runWithLimit(spec, v, scale, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	res.MinimalLimit = hi
	return res, nil
}

// String renders the search result.
func (r MinHeapSearch) String() string {
	return fmt.Sprintf("%s/%s: minimal heap by OOM search = %d bytes (peak live %d, %d probes)",
		r.Workload, r.Variant, r.MinimalLimit, r.PeakLive, r.Probes)
}
