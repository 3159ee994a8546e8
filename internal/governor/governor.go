package governor

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/faults"
)

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Tier is a rung on the degradation ladder. Higher values shed more
// profiling work; the application's logical behaviour is identical at
// every tier (profiling is passive — the PR-2 checksum invariant).
type Tier int32

const (
	// TierFull is unthrottled semantic profiling: every allocation gets a
	// per-instance record, heap ticket and allocation-context attribution.
	TierFull Tier = iota
	// TierSampled keeps heap attribution for every allocation but creates
	// per-instance trace records for only 1-in-rate allocations. The rate
	// decays (doubles) while the tier stays over budget.
	TierSampled
	// TierHeapOnly drops per-instance trace profiling entirely: no
	// instance records, no epoch flushes, no evidence windows. Heap
	// tickets and GC attribution survive, as does the online selector's
	// cached decisions (verification pauses — it would be judging starved
	// evidence).
	TierHeapOnly
	// TierOff sheds everything: collections allocated in this tier carry
	// neither instance nor heap ticket. Existing decisions stay cached.
	TierOff

	numTiers
)

// String names the tier for reports.
func (t Tier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierSampled:
		return "sampled"
	case TierHeapOnly:
		return "heap-only"
	case TierOff:
		return "off"
	}
	return fmt.Sprintf("tier(%d)", int32(t))
}

// MarshalText lets tiers render as names in JSON health reports.
func (t Tier) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// Config tunes the governor. The zero value is usable: Fill installs the
// defaults documented per field.
type Config struct {
	// TargetOverhead is the profiling-cost budget as a fraction of wall
	// time (default 0.05 — profiling may spend 5% of the process).
	// Measured overhead above the target steps the ladder down.
	TargetOverhead float64
	// RecoverTicks is how many consecutive calm ticks are required per
	// upward step (default 3). Mirrors PR 4's backoff discipline: stepping
	// down is immediate, stepping up is earned.
	RecoverTicks int
	// SampledRate is the instance-sampling rate on entering TierSampled
	// (default 8: 1-in-8 allocations get an instance record).
	SampledRate int
	// MaxSampledRate caps the in-tier rate decay (default 64). While over
	// budget in TierSampled the rate doubles each tick until it hits this
	// cap; only then does the ladder step down to TierHeapOnly.
	MaxSampledRate int
}

const (
	// lowWater is the recovery threshold as a fraction of TargetOverhead.
	// Only ticks measuring below lowWater×TargetOverhead accrue recovery
	// credit; the band between the two is a hysteresis dead-zone where
	// the governor holds its tier.
	lowWater = 0.5
	// maxTransitions bounds the transition history kept for Health; older
	// entries are dropped, the count is exact.
	maxTransitions = 64
)

// Fill replaces zero fields with defaults and returns the receiver.
func (c *Config) Fill() *Config {
	if c.TargetOverhead == 0 {
		c.TargetOverhead = 0.05
	}
	if c.RecoverTicks == 0 {
		c.RecoverTicks = 3
	}
	if c.SampledRate == 0 {
		c.SampledRate = 8
	}
	if c.MaxSampledRate == 0 {
		c.MaxSampledRate = 64
	}
	if c.MaxSampledRate < c.SampledRate {
		c.MaxSampledRate = c.SampledRate
	}
	return c
}

// Transition records one effective governor action: a tier change or an
// in-tier sampling-rate decay.
type Transition struct {
	Tick     int64   `json:"tick"`
	From     Tier    `json:"from"`
	To       Tier    `json:"to"`
	Rate     int     `json:"rate"`     // instance-sampling rate after the action
	Overhead float64 `json:"overhead"` // measured overhead fraction that triggered it
	Reason   string  `json:"reason"`
}

// Health is a point-in-time snapshot of the governor for reports.
type Health struct {
	Tier            Tier             `json:"tier"`
	Rate            int              `json:"rate"`
	Ticks           int64            `json:"ticks"`
	LastOverhead    float64          `json:"lastOverhead"`
	TargetOverhead  float64          `json:"targetOverhead"`
	SourceNanos     map[string]int64 `json:"sourceNanos"`
	SourceEvents    map[string]int64 `json:"sourceEvents"`
	TransitionCount int64            `json:"transitionCount"`
	Transitions     []Transition     `json:"transitions"`
}

// Governor periodically compares self-measured profiling cost against the
// overhead budget and walks the runtime up and down the degradation
// ladder. It acts through a single Apply callback (set once, before
// ticking starts) so it stays a leaf package: collections, adaptive and
// core wire themselves in rather than being imported.
type Governor struct {
	cfg   Config
	meter *Meter

	tier atomic.Int32
	rate atomic.Int64

	mu          sync.Mutex
	last        [NumSources]int64 // meter readings at the previous tick
	calm        int               // consecutive ticks below the low watermark
	ticks       int64
	transitions []Transition
	transTotal  int64
	lastOver    atomic.Uint64 // math.Float64bits of the last measured overhead

	apply func(Tier, int)

	stop chan struct{}
	done chan struct{}
}

// New builds a governor over the given meter. The meter must be the same
// one wired into the runtime's flush/GC/snapshot seams.
func New(meter *Meter, cfg Config) *Governor {
	cfg.Fill()
	g := &Governor{cfg: cfg, meter: meter}
	g.rate.Store(1)
	return g
}

// SetApply installs the enforcement callback, invoked (outside the
// governor's lock is NOT guaranteed; it is called under g.mu, keep it
// cheap and non-reentrant) on every effective transition with the new
// tier and instance-sampling rate. Must be set before Tick/Start.
func (g *Governor) SetApply(fn func(tier Tier, rate int)) { g.apply = fn }

// Tier reports the current rung.
func (g *Governor) Tier() Tier { return Tier(g.tier.Load()) }

// Rate reports the current instance-sampling rate (1 outside TierSampled).
func (g *Governor) Rate() int { return int(g.rate.Load()) }

// Tick runs one governor evaluation over the cost accrued since the
// previous tick, attributed to the elapsed wall time. It is the unit the
// test suite drives directly; Start runs it on a wall-clock ticker.
func (g *Governor) Tick(elapsed time.Duration) Tier {
	if elapsed <= 0 {
		return g.Tier()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ticks++

	cur := g.meter.Nanos()
	var spent int64
	for s := Source(0); s < NumSources; s++ {
		d := cur[s] - g.last[s]
		g.last[s] = cur[s]
		if d < 0 { // meter replaced/reset underneath us; drop the sample
			d = 0
		}
		if inflated, ok := faults.OverheadSpike(s.String(), d); ok {
			d = inflated
		}
		spent += d
	}
	overhead := float64(spent) / float64(elapsed.Nanoseconds())
	g.lastOver.Store(floatBits(overhead))

	tier := Tier(g.tier.Load())
	rate := int(g.rate.Load())
	switch {
	case overhead > g.cfg.TargetOverhead:
		g.calm = 0
		g.stepDownLocked(tier, rate, overhead)
	case overhead < lowWater*g.cfg.TargetOverhead:
		g.calm++
		if g.calm >= g.cfg.RecoverTicks {
			g.calm = 0
			g.stepUpLocked(tier, overhead)
		}
	default:
		// Hysteresis dead-zone: hold the tier, forfeit recovery credit.
		g.calm = 0
	}
	return Tier(g.tier.Load())
}

// stepDownLocked sheds one rung (or decays the sampling rate inside
// TierSampled) in response to a measured overhead breach.
func (g *Governor) stepDownLocked(tier Tier, rate int, overhead float64) {
	reason := fmt.Sprintf("overhead %.2f%% > target %.2f%%",
		overhead*100, g.cfg.TargetOverhead*100)
	switch {
	case tier == TierSampled && rate < g.cfg.MaxSampledRate:
		g.commitLocked(tier, tier, rate*2, overhead, reason+" (rate decay)")
	case tier < TierOff:
		next := tier + 1
		nr := 1
		if next == TierSampled {
			nr = g.cfg.SampledRate
		}
		g.commitLocked(tier, next, nr, overhead, reason)
	}
	// Already at TierOff: nothing left to shed.
}

// stepUpLocked restores one rung after sustained calm.
func (g *Governor) stepUpLocked(tier Tier, overhead float64) {
	if tier == TierFull {
		return
	}
	reason := fmt.Sprintf("overhead %.2f%% < %.2f%% for %d ticks",
		overhead*100, lowWater*g.cfg.TargetOverhead*100, g.cfg.RecoverTicks)
	next := tier - 1
	nr := 1
	if next == TierSampled {
		// Re-enter sampled at the base rate: the decayed rate reflected a
		// pressure level we have since demonstrably left behind.
		nr = g.cfg.SampledRate
	}
	g.commitLocked(tier, next, nr, overhead, reason)
}

// commitLocked records and enforces one transition.
func (g *Governor) commitLocked(from, to Tier, rate int, overhead float64, reason string) {
	g.tier.Store(int32(to))
	g.rate.Store(int64(rate))
	g.transTotal++
	g.transitions = append(g.transitions, Transition{
		Tick: g.ticks, From: from, To: to, Rate: rate,
		Overhead: overhead, Reason: reason,
	})
	if n := len(g.transitions); n > maxTransitions {
		g.transitions = g.transitions[n-maxTransitions:]
	}
	if g.apply != nil {
		g.apply(to, rate)
	}
}

// Health snapshots the governor for end-of-run reports and -health-out.
func (g *Governor) Health() Health {
	g.mu.Lock()
	defer g.mu.Unlock()
	h := Health{
		Tier:            Tier(g.tier.Load()),
		Rate:            int(g.rate.Load()),
		Ticks:           g.ticks,
		LastOverhead:    floatFromBits(g.lastOver.Load()),
		TargetOverhead:  g.cfg.TargetOverhead,
		SourceNanos:     map[string]int64{},
		SourceEvents:    map[string]int64{},
		TransitionCount: g.transTotal,
		Transitions:     append([]Transition(nil), g.transitions...),
	}
	nanos, events := g.meter.Nanos(), g.meter.Events()
	for s := Source(0); s < NumSources; s++ {
		h.SourceNanos[s.String()] = nanos[s]
		h.SourceEvents[s.String()] = events[s]
	}
	return h
}

// Calm reports the current streak of consecutive ticks measured below the
// low watermark — the recovery credit toward the next upward step. The
// chaos auditors use it together with Tier to prove the ladder is actually
// recovering after an injected overhead spike subsides (a ladder stuck
// below TierFull with zero accruing calm is wedged, not merely slow).
func (g *Governor) Calm() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calm
}

// Transitions returns the retained transition history (oldest first).
func (g *Governor) Transitions() []Transition {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Transition(nil), g.transitions...)
}

// Start launches a background goroutine that Ticks every interval until
// Stop. Calling Start twice without Stop panics (it would double-tick).
func (g *Governor) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	if g.stop != nil {
		panic("governor: Start called twice")
	}
	g.stop = make(chan struct{})
	g.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		tk := time.NewTicker(interval)
		defer tk.Stop()
		prev := time.Now()
		for {
			select {
			case <-stop:
				return
			case now := <-tk.C:
				g.Tick(now.Sub(prev))
				prev = now
			}
		}
	}(g.stop, g.done)
}

// Stop halts the background ticker started by Start and waits for it.
func (g *Governor) Stop() {
	if g.stop == nil {
		return
	}
	close(g.stop)
	<-g.done
	g.stop, g.done = nil, nil
}
