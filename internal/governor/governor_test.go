package governor

import (
	"testing"
	"time"

	"chameleon/internal/faults"
)

// spikePlan arms a fault plan that inflates the flush source's reading by
// *nanos on every governor tick, letting tests dial measured overhead
// without doing real work.
func spikePlan(t *testing.T, nanos *int64) {
	t.Helper()
	faults.ArmT(t, &faults.Plan{OverheadSpike: func(src string, d int64) (int64, bool) {
		if src == SrcFlush.String() {
			return d + *nanos, true
		}
		return d, false
	}})
}

// tierSeq extracts the (From, To, Rate) shape of a transition history.
func tierSeq(trs []Transition) []Transition {
	out := make([]Transition, len(trs))
	for i, tr := range trs {
		out[i] = Transition{From: tr.From, To: tr.To, Rate: tr.Rate}
	}
	return out
}

// TestGovernorExactTierSequence is the ISSUE acceptance test: an injected
// overhead spike walks the ladder down full → sampled → heap-only → off,
// and sustained calm walks it back up with hysteresis — each upward step
// earned by RecoverTicks consecutive calm ticks. MaxSampledRate ==
// SampledRate disables in-tier rate decay so the sequence is exactly one
// transition per breach.
func TestGovernorExactTierSequence(t *testing.T) {
	var spike int64
	spikePlan(t, &spike)
	g := New(NewMeter(), Config{
		TargetOverhead: 0.05, RecoverTicks: 2,
		SampledRate: 8, MaxSampledRate: 8,
	})
	const tick = 100 * time.Millisecond

	// Three over-budget ticks: 10% measured against a 5% target.
	spike = int64(0.10 * float64(tick.Nanoseconds()))
	for i := 0; i < 3; i++ {
		g.Tick(tick)
	}
	if got := g.Tier(); got != TierOff {
		t.Fatalf("after 3 breaches tier = %v, want off", got)
	}
	// A fourth breach has nothing left to shed.
	g.Tick(tick)
	if got := g.Tier(); got != TierOff {
		t.Fatalf("breach at the floor moved the tier: %v", got)
	}

	// Calm: each upward step needs RecoverTicks=2 consecutive calm ticks.
	spike = 0
	steps := []Tier{TierOff, TierHeapOnly, TierHeapOnly, TierSampled, TierSampled, TierFull}
	for i, want := range steps {
		if got := g.Tick(tick); got != want {
			t.Fatalf("calm tick %d: tier = %v, want %v", i+1, got, want)
		}
	}

	want := []Transition{
		{From: TierFull, To: TierSampled, Rate: 8},
		{From: TierSampled, To: TierHeapOnly, Rate: 1},
		{From: TierHeapOnly, To: TierOff, Rate: 1},
		{From: TierOff, To: TierHeapOnly, Rate: 1},
		{From: TierHeapOnly, To: TierSampled, Rate: 8},
		{From: TierSampled, To: TierFull, Rate: 1},
	}
	got := tierSeq(g.Transitions())
	if len(got) != len(want) {
		t.Fatalf("transitions = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if h := g.Health(); h.TransitionCount != int64(len(want)) {
		t.Fatalf("health transition count = %d, want %d", h.TransitionCount, len(want))
	}
}

// TestGovernorRateDecay: inside TierSampled the sampling rate doubles per
// over-budget tick until MaxSampledRate; only then does the ladder step
// down to heap-only.
func TestGovernorRateDecay(t *testing.T) {
	var spike int64
	spikePlan(t, &spike)
	g := New(NewMeter(), Config{
		TargetOverhead: 0.05, SampledRate: 4, MaxSampledRate: 16,
	})
	const tick = 100 * time.Millisecond
	spike = int64(0.20 * float64(tick.Nanoseconds()))

	wantRates := []struct {
		tier Tier
		rate int
	}{
		{TierSampled, 4},  // enter sampled at the base rate
		{TierSampled, 8},  // decay
		{TierSampled, 16}, // decay to the cap
		{TierHeapOnly, 1}, // cap reached: shed the tier
	}
	for i, w := range wantRates {
		g.Tick(tick)
		if g.Tier() != w.tier || g.Rate() != w.rate {
			t.Fatalf("tick %d: tier=%v rate=%d, want tier=%v rate=%d",
				i+1, g.Tier(), g.Rate(), w.tier, w.rate)
		}
	}
}

// TestGovernorDeadZoneForfeitsCalm: a reading between the low watermark
// and the target holds the tier AND resets recovery credit, so recovery
// requires RecoverTicks *consecutive* calm ticks.
func TestGovernorDeadZoneForfeitsCalm(t *testing.T) {
	var spike int64
	spikePlan(t, &spike)
	g := New(NewMeter(), Config{
		TargetOverhead: 0.05, RecoverTicks: 3,
		SampledRate: 8, MaxSampledRate: 8,
	})
	const tick = 100 * time.Millisecond

	spike = int64(0.10 * float64(tick.Nanoseconds()))
	g.Tick(tick) // full -> sampled

	calm := int64(0)
	dead := int64(0.04 * float64(tick.Nanoseconds())) // 4%: inside (2.5%, 5%]

	spike = calm
	g.Tick(tick)
	g.Tick(tick) // two calm ticks: one short of recovery
	spike = dead
	g.Tick(tick) // dead zone: credit forfeited
	spike = calm
	g.Tick(tick)
	g.Tick(tick)
	if got := g.Tier(); got != TierSampled {
		t.Fatalf("tier = %v after interrupted calm, want sampled (credit must reset)", got)
	}
	if got := g.Tick(tick); got != TierFull {
		t.Fatalf("third consecutive calm tick: tier = %v, want full", got)
	}
}

// TestMeterFlushSampling: every flush counts an event, 1-in-16 is elected
// for timing, and recorded durations are scaled back up by 16.
func TestMeterFlushSampling(t *testing.T) {
	m := NewMeter()
	timed := 0
	for i := 0; i < 64; i++ {
		if m.SampleFlush() {
			timed++
			m.RecordFlush(10 * time.Nanosecond)
		}
	}
	if timed != 4 {
		t.Fatalf("timed flushes = %d, want 64/16 = 4", timed)
	}
	if ev := m.Events()[SrcFlush]; ev != 64 {
		t.Fatalf("flush events = %d, want 64", ev)
	}
	if ns := m.Nanos()[SrcFlush]; ns != 4*10*16 {
		t.Fatalf("flush nanos = %d, want scaled 640", ns)
	}
}

// TestMeterNilSafe: the nil meter records nothing and never panics — the
// ungoverned configuration.
func TestMeterNilSafe(t *testing.T) {
	var m *Meter
	if m.SampleFlush() {
		t.Fatal("nil meter elected a flush for timing")
	}
	m.RecordFlush(time.Second)
	m.Record(SrcGCWalk, time.Second)
	if m.Nanos() != [NumSources]int64{} || m.Events() != [NumSources]int64{} {
		t.Fatal("nil meter accumulated readings")
	}
}

// TestGovernorStartStop: the background ticker runs and stops cleanly, and
// Stop is idempotent.
func TestGovernorStartStop(t *testing.T) {
	g := New(NewMeter(), Config{})
	g.Start(time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	g.Stop()
	g.Stop()
	if h := g.Health(); h.Ticks == 0 {
		t.Fatal("background ticker never ticked")
	}
	// Restart after Stop must not panic.
	g.Start(time.Millisecond)
	g.Stop()
}
