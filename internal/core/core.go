// Package core assembles the Chameleon tool from its parts (paper Fig. 1):
// a Session wires the simulated collection-aware heap, the semantic
// profiler, allocation-context capture, the collections runtime and —
// optionally — the fully-automatic online selector, and exposes the two
// tool outputs: per-cycle potential series (Fig. 2 / Fig. 8) and the
// rule-engine suggestion report (§2.1, Fig. 3).
package core

import (
	"time"

	"chameleon/internal/adaptive"
	"chameleon/internal/advisor"
	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/governor"
	"chameleon/internal/heap"
	"chameleon/internal/profiler"
	"chameleon/internal/stats"
)

// Config configures a Session.
type Config struct {
	// Mode selects allocation-context capture (default Static).
	Mode alloctx.Mode
	// Model is the simulated object layout (default heap.Model32).
	Model heap.SizeModel
	// GCThreshold is the allocation volume between GC cycles (default 1 MiB).
	GCThreshold int64
	// KeepSnapshots retains every cycle's statistics, with its Table 3
	// type breakdown, for the Fig. 2 / Fig. 8 series (PotentialSeries) and
	// the peak type distribution. Off by default: a cycle then costs a
	// fold of the heap's running sums and retains nothing.
	KeepSnapshots bool
	// KeepContexts additionally retains per-context data inside each kept
	// snapshot, enabling the §4.4 context-level time series.
	KeepContexts bool
	// Online enables the fully-automatic selector (§3.3.2).
	Online bool
	// OnlineOptions tune the online selector.
	OnlineOptions adaptive.Options
	// Selector installs a fixed selector (e.g. an advisor.Plan derived
	// from a previous run's report) when Online is false.
	Selector collections.Selector
	// NoProfiling turns trace profiling off entirely (heap simulation
	// still runs); used for baseline timing runs.
	NoProfiling bool
	// Limit, when positive, is a hard cap on simulated live bytes; an
	// allocation exceeding it panics with heap.OOMError (used by the
	// minimal-heap search).
	Limit int64
	// MaxContexts, when positive, is the context budget: the alloctx
	// table interns at most this many distinct contexts, the shared
	// overflow context included, and further captures alias to that
	// overflow context. Every profiler and heap key is a table key, so
	// admission alone bounds profiling memory under unbounded context
	// cardinality (docs/ROBUSTNESS.md "Budgets").
	MaxContexts int
	// OverheadBudget, when positive, enables the overhead governor with
	// this target profiling-cost fraction (e.g. 0.05 = 5% of wall time);
	// the governor walks the runtime down the degradation ladder when the
	// self-measured cost exceeds it. Zero leaves the governor off.
	OverheadBudget float64
	// GovernorOptions tune the governor beyond the budget; the
	// TargetOverhead field is overridden by OverheadBudget.
	GovernorOptions governor.Config
}

// Session is one profiled program run.
type Session struct {
	Heap     *heap.Heap
	Prof     *profiler.Profiler
	Contexts *alloctx.Table
	Selector *adaptive.Selector
	// Governor is the overhead governor, non-nil only when
	// Config.OverheadBudget was positive. Start/Stop it around the run
	// (the CLI does), or drive Tick directly in tests.
	Governor *governor.Governor

	rt          *collections.Runtime
	meter       *governor.Meter
	maxContexts int
}

// NewSession builds a fully wired session.
func NewSession(cfg Config) *Session {
	s := &Session{Contexts: alloctx.NewTable(), maxContexts: cfg.MaxContexts}
	if cfg.Mode == 0 {
		cfg.Mode = alloctx.Static
	}
	if cfg.MaxContexts > 0 {
		s.Contexts.SetMaxContexts(cfg.MaxContexts)
		s.Contexts.Overflow() // intern it now, so it counts against the budget
	}
	if cfg.OverheadBudget > 0 {
		s.meter = governor.NewMeter()
	}
	var obs heap.Observer
	if !cfg.NoProfiling {
		s.Prof = profiler.New()
		s.Prof.SetMeter(s.meter)
		obs = s.Prof
	}
	s.Heap = heap.New(heap.Config{
		Model:         cfg.Model,
		GCThreshold:   cfg.GCThreshold,
		Observer:      obs,
		KeepSnapshots: cfg.KeepSnapshots,
		KeepContexts:  cfg.KeepContexts,
		Limit:         cfg.Limit,
		Meter:         s.meter,
	})
	sel := cfg.Selector
	if cfg.Online && s.Prof != nil {
		s.Selector = adaptive.New(s.Prof, cfg.OnlineOptions)
		sel = s.Selector
	}
	s.rt = collections.NewRuntime(collections.Config{
		Heap:     s.Heap,
		Profiler: s.Prof,
		Contexts: s.Contexts,
		Mode:     cfg.Mode,
		Selector: sel,
		Meter:    s.meter,
	})
	if cfg.OverheadBudget > 0 {
		gcfg := cfg.GovernorOptions
		gcfg.TargetOverhead = cfg.OverheadBudget
		s.Governor = governor.New(s.meter, gcfg)
		rt, adaptiveSel := s.rt, s.Selector
		s.Governor.SetApply(func(t governor.Tier, rate int) {
			rt.SetProfilingTier(t, rate)
			if adaptiveSel != nil {
				// Heap-only and off shed instance profiling; verification
				// would judge decisions on starved evidence windows.
				adaptiveSel.Pause(t >= governor.TierHeapOnly)
			}
		})
	}
	return s
}

// Runtime reports the collections runtime workloads allocate through.
func (s *Session) Runtime() *collections.Runtime { return s.rt }

// StartGovernor begins governor ticking at the given interval (<=0 picks
// the default); a no-op when the session has no governor. Call
// StopGovernor before reading end-of-run reports.
func (s *Session) StartGovernor(interval time.Duration) {
	if s.Governor != nil {
		s.Governor.Start(interval)
	}
}

// StopGovernor halts governor ticking; a no-op without a governor.
func (s *Session) StopGovernor() {
	if s.Governor != nil {
		s.Governor.Stop()
	}
}

// BudgetHealth reports where the context budget stands.
type BudgetHealth struct {
	// MaxContexts is the configured budget (0 = unbounded).
	MaxContexts int `json:"maxContexts"`
	// TableContexts is the number of interned allocation contexts.
	TableContexts int `json:"tableContexts"`
	// TableOverflowAdmissions counts captures redirected to the overflow
	// context because the table budget was exhausted.
	TableOverflowAdmissions int64 `json:"tableOverflowAdmissions"`
	// ProfilerContexts is the number of profiler-tracked contexts.
	ProfilerContexts int `json:"profilerContexts"`
	// OverflowAllocs is the allocation traffic the profiler attributes to
	// the overflow context: one allocation per denied admission.
	OverflowAllocs int64 `json:"overflowAllocs"`
	// LiveInstances is the number of currently tracked live collections.
	LiveInstances int `json:"liveInstances"`
}

// Health is the session's overload-protection snapshot: the degradation-
// ladder position plus budget accounting (docs/ROBUSTNESS.md).
type Health struct {
	Tier     governor.Tier    `json:"tier"`
	Governor *governor.Health `json:"governor,omitempty"`
	Budget   BudgetHealth     `json:"budget"`
}

// Health snapshots the session's overload-protection state.
func (s *Session) Health() Health {
	h := Health{Tier: s.rt.ProfilingTier()}
	if s.Governor != nil {
		gh := s.Governor.Health()
		h.Governor = &gh
		h.Tier = gh.Tier
	}
	h.Budget.MaxContexts = s.maxContexts
	if s.Contexts != nil {
		h.Budget.TableContexts = s.Contexts.Len()
		h.Budget.TableOverflowAdmissions = s.Contexts.OverflowAdmissions()
	}
	if s.Prof != nil {
		h.Budget.ProfilerContexts = s.Prof.Contexts()
		h.Budget.LiveInstances = s.Prof.LiveInstances()
		if s.maxContexts > 0 {
			if p := s.Prof.SnapshotContext(s.Contexts.Overflow()); p != nil {
				h.Budget.OverflowAllocs = p.Allocs
			}
		}
	}
	return h
}

// Report snapshots the profiler and applies the rule engine.
func (s *Session) Report(opts advisor.Options) (*advisor.Report, error) {
	if s.Prof == nil {
		return &advisor.Report{}, nil
	}
	return advisor.Advise(s.Prof.Snapshot(), opts)
}

// CyclePoint is one GC cycle of the Fig. 2 / Fig. 8 series: the share of
// total live data held by collections, split into live / used / core.
type CyclePoint struct {
	Cycle   int
	LivePct float64
	UsedPct float64
	CorePct float64
	// Absolute values, for the tables.
	LiveData    int64
	Collections heap.Footprint
}

// PotentialSeries converts the retained heap snapshots into the Fig. 2
// percentage series (empty unless Config.KeepSnapshots was set).
func (s *Session) PotentialSeries() []CyclePoint {
	snaps := s.Heap.Snapshots()
	out := make([]CyclePoint, 0, len(snaps))
	for _, c := range snaps {
		out = append(out, CyclePoint{
			Cycle:       c.Cycle,
			LivePct:     stats.Percent(float64(c.Collections.Live), float64(c.LiveData)),
			UsedPct:     stats.Percent(float64(c.Collections.Used), float64(c.LiveData)),
			CorePct:     stats.Percent(float64(c.Collections.Core), float64(c.LiveData)),
			LiveData:    c.LiveData,
			Collections: c.Collections,
		})
	}
	return out
}

// FinalGC forces a final collection cycle so end-of-run statistics are
// recorded even when the allocation volume since the last cycle is small.
func (s *Session) FinalGC() { s.Heap.GC() }
