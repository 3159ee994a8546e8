package experiments

import (
	"fmt"
	"sort"
	"strings"

	"chameleon/internal/core"
	"chameleon/internal/heap"
)

// Context-level time series (paper §4.4: "we also record the results for
// each cycle separately — it is up to the user to specify what they want
// to sort the results by as well as how many contexts to show"). Requires
// a session whose heap retained per-context snapshot data (core.Config
// KeepSnapshots and KeepContexts).

// ContextSeriesPoint is one context's footprint in one GC cycle.
type ContextSeriesPoint struct {
	Cycle     int
	Footprint heap.Footprint
	Objects   int64
}

// ContextSeries is one context's per-cycle history.
type ContextSeries struct {
	ContextKey uint64
	Label      string
	Points     []ContextSeriesPoint
	// PeakLive is the context's largest per-cycle live footprint.
	PeakLive int64
}

// TopContextSeries extracts, from a session's retained snapshots, the
// per-cycle series of the top-K contexts ranked by peak live bytes.
func TopContextSeries(s *core.Session, top int) []ContextSeries {
	byKey := map[uint64]*ContextSeries{}
	for _, snap := range s.Heap.Snapshots() {
		for _, cc := range snap.PerContext {
			cs, ok := byKey[cc.Key]
			if !ok {
				cs = &ContextSeries{ContextKey: cc.Key}
				if ctx := s.Contexts.Lookup(cc.Key); ctx != nil {
					cs.Label = ctx.String()
				} else {
					cs.Label = fmt.Sprintf("<context %#x>", cc.Key)
				}
				byKey[cc.Key] = cs
			}
			cs.Points = append(cs.Points, ContextSeriesPoint{
				Cycle:     snap.Cycle,
				Footprint: cc.Footprint,
				Objects:   cc.Objects,
			})
			if cc.Footprint.Live > cs.PeakLive {
				cs.PeakLive = cc.Footprint.Live
			}
		}
	}
	out := make([]ContextSeries, 0, len(byKey))
	for _, cs := range byKey {
		out = append(out, *cs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PeakLive != out[j].PeakLive {
			return out[i].PeakLive > out[j].PeakLive
		}
		return out[i].Label < out[j].Label
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

// FormatContextSeries renders the per-cycle live bytes of each context as
// aligned rows plus a sparkline-style bar per cycle.
func FormatContextSeries(series []ContextSeries, every int) string {
	if every <= 0 {
		every = 1
	}
	var b strings.Builder
	for i, cs := range series {
		fmt.Fprintf(&b, "context %d: %s (peak live %d bytes)\n", i+1, cs.Label, cs.PeakLive)
		fmt.Fprintf(&b, "  %6s %10s %10s %8s\n", "cycle", "live", "used", "objects")
		for j, p := range cs.Points {
			if j%every != 0 && j != len(cs.Points)-1 {
				continue
			}
			bar := ""
			if cs.PeakLive > 0 {
				bar = strings.Repeat("#", int(30*p.Footprint.Live/cs.PeakLive))
			}
			fmt.Fprintf(&b, "  %6d %10d %10d %8d  %s\n",
				p.Cycle, p.Footprint.Live, p.Footprint.Used, p.Objects, bar)
		}
	}
	return b.String()
}

// PeakTypeDistribution reports the Table 3 per-type live-size breakdown at
// the cycle with the most live data (requires core.Config.KeepSnapshots).
func PeakTypeDistribution(s *core.Session) (cycle int, dist map[string]int64) {
	var best heap.CycleStats
	for _, snap := range s.Heap.Snapshots() {
		if snap.LiveData > best.LiveData {
			best = snap
		}
	}
	return best.Cycle, best.TypeDist
}
