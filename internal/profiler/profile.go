package profiler

import (
	"fmt"
	"sort"
	"strings"

	"chameleon/internal/alloctx"
	"chameleon/internal/heap"
	"chameleon/internal/spec"
	"chameleon/internal/stats"
)

// Profile is the finalized, read-only per-context view consumed by the rule
// engine and the reports. All Table 1 statistics are exposed either as
// fields or through the Metric/OpMean/OpStdDev vocabulary of the rule
// language (Fig. 4).
type Profile struct {
	Context  *alloctx.Context
	Declared spec.Kind
	Impl     spec.Kind

	// Allocs is the number of collections allocated at this context; Live
	// is how many were still reachable at snapshot time.
	Allocs int64
	Live   int64
	// Evidence is the number of instance records folded into this profile
	// (completed instances plus live ones folded at snapshot time) — the
	// sample size behind the per-instance statistics. The guarded online
	// selector refuses to judge a decision below a minimum Evidence.
	Evidence int64

	// OpTotals is the total number of times each operation was performed
	// across all instances of the context.
	OpTotals [spec.NumOps]int64
	// OpMean and OpStdDev are the per-instance average operation counts
	// and their standard deviations (Table 1 "Avg/Var operation count").
	OpMean   [spec.NumOps]float64
	OpStdDev [spec.NumOps]float64

	// MaxSizeAvg/StdDev/Max summarize the per-instance maximal sizes
	// (Table 1 "Avg/Var of maximal size").
	MaxSizeAvg    float64
	MaxSizeStdDev float64
	MaxSizeMax    float64
	// FinalSizeAvg is the average size at death.
	FinalSizeAvg float64
	// InitialCapAvg is the average requested initial capacity.
	InitialCapAvg float64
	// SizeHist is the distribution of per-instance maximal sizes.
	SizeHist *stats.Histogram

	// EmptyIterators counts iterators created over empty collections.
	EmptyIterators int64

	// Heap statistics recorded by the collection-aware GC: totals are
	// summed over GC cycles, maxima are per-cycle peaks.
	TotHeap  heap.Footprint
	MaxHeap  heap.Footprint
	TotObjs  int64
	MaxObjs  int64
	GCCycles int64
}

func newProfile(a *aggregate, live int64) *Profile {
	p := &Profile{
		Context:        a.ctx,
		Declared:       a.declared,
		Impl:           a.impl,
		Allocs:         a.allocs,
		Live:           live,
		Evidence:       a.deaths,
		MaxSizeAvg:     a.maxSize.Mean(),
		MaxSizeStdDev:  a.maxSize.StdDev(),
		MaxSizeMax:     a.maxSize.Max(),
		FinalSizeAvg:   a.finalSz.Mean(),
		InitialCapAvg:  a.initCap.Mean(),
		SizeHist:       a.sizeHist,
		EmptyIterators: a.emptyIters,
		TotHeap:        a.totHeap,
		MaxHeap:        a.maxHeap,
		TotObjs:        a.totObjs,
		MaxObjs:        a.maxObjs,
		GCCycles:       a.gcCycles,
	}
	for op := spec.Op(0); op < spec.NumOps; op++ {
		p.OpTotals[op] = a.opTotals[op]
		p.OpMean[op] = a.opStats[op].Mean()
		p.OpStdDev[op] = a.opStats[op].StdDev()
	}
	return p
}

// AllOpsMean reports the per-instance average of #allOps.
func (p *Profile) AllOpsMean() float64 {
	var sum float64
	for op := spec.Op(0); op < spec.NumOps; op++ {
		sum += p.OpMean[op]
	}
	return sum
}

// AllOpsTotal reports the total of all operation counters.
func (p *Profile) AllOpsTotal() int64 { return spec.AllOps(&p.OpTotals) }

// Potential reports the context's space-saving potential in bytes: the gap
// between the peak live bytes of its collections and the peak used bytes
// (the paper's totLive - totUsed guidance, using per-cycle maxima so that
// short-lived contexts do not dominate long runs).
func (p *Profile) Potential() int64 { return p.MaxHeap.Overhead() }

// OpMeanByName resolves a "#name" reference from the rule language to the
// per-instance average count.
func (p *Profile) OpMeanByName(name string) (float64, bool) {
	if name == "allOps" {
		return p.AllOpsMean(), true
	}
	op, ok := spec.OpByName(name)
	if !ok {
		return 0, false
	}
	return p.OpMean[op], true
}

// OpStdDevByName resolves a "@name" reference from the rule language to
// the per-instance standard deviation of the count.
func (p *Profile) OpStdDevByName(name string) (float64, bool) {
	op, ok := spec.OpByName(name)
	if !ok {
		return 0, false
	}
	return p.OpStdDev[op], true
}

// Metric resolves a tracedata/heapdata name from the rule language
// (Fig. 4): size, maxSize, initialCapacity, maxLive, totLive, maxUsed,
// totUsed, maxCore, totCore, plus the derived allocs, liveObjects,
// maxObjects, totObjects, potential, emptyIterators and gcCycles.
func (p *Profile) Metric(name string) (float64, bool) {
	switch name {
	case "size":
		return p.FinalSizeAvg, true
	case "maxSize":
		return p.MaxSizeAvg, true
	case "initialCapacity":
		return p.InitialCapAvg, true
	case "maxLive":
		return float64(p.MaxHeap.Live), true
	case "totLive":
		return float64(p.TotHeap.Live), true
	case "maxUsed":
		return float64(p.MaxHeap.Used), true
	case "totUsed":
		return float64(p.TotHeap.Used), true
	case "maxCore":
		return float64(p.MaxHeap.Core), true
	case "totCore":
		return float64(p.TotHeap.Core), true
	case "allocs":
		return float64(p.Allocs), true
	case "liveObjects":
		return float64(p.Live), true
	case "maxObjects":
		return float64(p.MaxObjs), true
	case "totObjects":
		return float64(p.TotObjs), true
	case "potential":
		return float64(p.Potential()), true
	case "emptyIterators":
		return float64(p.EmptyIterators), true
	case "gcCycles":
		return float64(p.GCCycles), true
	case "emptyFraction":
		// Fraction of instances whose maximal size stayed 0. The paper
		// observes max sizes are "often biased around a single value
		// (e.g., 1), with a long tail" (§3.3.1); the mean hides that, so
		// rules about mostly-empty contexts (the bloat/PMD pathologies)
		// read the distribution directly.
		if p.SizeHist == nil {
			return 0, true
		}
		return p.SizeHist.Fraction(0), true
	case "sizeMode":
		// The most frequent per-instance maximal size.
		if p.SizeHist == nil {
			return 0, true
		}
		mode, _ := p.SizeHist.Mode()
		return float64(mode), true
	}
	return 0, false
}

// Stability reports the standard deviation of a metric for stability
// gating (Definition 3.1). Metrics with no tracked variance report 0
// (always stable), matching the paper's default that only size values are
// required to be tight.
func (p *Profile) Stability(name string) float64 {
	switch name {
	case "size", "maxSize":
		return p.MaxSizeStdDev
	}
	return 0
}

// SrcKind reports the kind used for rule srcType matching: the declared
// kind of the context's collections.
func (p *Profile) SrcKind() spec.Kind { return p.Declared }

// Rank sorts profiles by descending space-saving potential, breaking ties
// by total operation volume. This is the ranked list of allocation
// contexts the tool presents (§2.1, Fig. 3).
func Rank(profiles []*Profile) []*Profile {
	out := make([]*Profile, len(profiles))
	copy(out, profiles)
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Potential(), out[j].Potential()
		if pi != pj {
			return pi > pj
		}
		ti, tj := out[i].AllOpsTotal(), out[j].AllOpsTotal()
		if ti != tj {
			return ti > tj
		}
		return out[i].Context.Key() < out[j].Context.Key()
	})
	return out
}

// OpDistribution renders the non-zero operation totals sorted by count,
// like the operation-distribution circles of paper Fig. 3.
func (p *Profile) OpDistribution() string {
	type kv struct {
		op spec.Op
		n  int64
	}
	var rows []kv
	for op := spec.Op(0); op < spec.NumOps; op++ {
		if p.OpTotals[op] > 0 {
			rows = append(rows, kv{op, p.OpTotals[op]})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].op < rows[j].op
	})
	parts := make([]string, len(rows))
	total := p.AllOpsTotal()
	for i, r := range rows {
		parts[i] = fmt.Sprintf("%s=%d (%.0f%%)", r.op, r.n, stats.Percent(float64(r.n), float64(total)))
	}
	return strings.Join(parts, " ")
}

// String renders a one-line summary of the profile.
func (p *Profile) String() string {
	return fmt.Sprintf("%s@%s allocs=%d maxLive=%d maxUsed=%d potential=%d avgMaxSize=%.1f",
		p.Impl, p.Context.String(), p.Allocs, p.MaxHeap.Live, p.MaxHeap.Used, p.Potential(), p.MaxSizeAvg)
}

// MarshalJSON serializes the profile as its snapshot record body, with
// operation names spelled out.
func (p *Profile) MarshalJSON() ([]byte, error) { return appendProfile(nil, p) }
