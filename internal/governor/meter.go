// Package governor implements Chameleon's overload-protection subsystem:
// a self-measuring overhead governor that keeps the cost of semantic
// profiling inside an explicit budget by moving the runtime through a
// degradation ladder — full → sampled → heap-only → off — with hysteresis
// on recovery (docs/ROBUSTNESS.md "Overload resilience").
//
// The paper's central claim is *low-overhead* profiling (§3, Tables 1/3),
// but the seed implementation's cost was unconditional: every allocation
// paid for context capture, instance records and epoch flushes no matter
// how loaded the process was. The governor closes that gap the way
// profile-guided systems usually do — by treating profiling fidelity as
// the thing that degrades under pressure, never the application.
package governor

import (
	"sync/atomic"
	"time"
)

// Source identifies one self-measured profiling cost center.
type Source int

const (
	// SrcFlush is the epoch-flush path: draining owner-local pending
	// counters into the shared atomic structures (collections wrappers).
	SrcFlush Source = iota
	// SrcGCWalk is the collection-aware GC cycle's statistics pass:
	// folding the heap's running per-context sums into per-cycle
	// statistics.
	SrcGCWalk
	// SrcWindowFold is snapshot folding: whole-profiler snapshots,
	// single-context snapshots on the online decide path, and evidence-
	// window folds on the verify path.
	SrcWindowFold
	// NumSources is the number of cost centers.
	NumSources
)

// String names the source (the key used in health reports and the
// fault-injection hook).
func (s Source) String() string {
	switch s {
	case SrcFlush:
		return "flush"
	case SrcGCWalk:
		return "gcWalk"
	case SrcWindowFold:
		return "windowFold"
	}
	return "unknown"
}

// flushSampleEvery is the 1-in-N sampling rate for timing epoch flushes.
// Flushes are the only metered seam that sits anywhere near the hot path
// (one per flushEvery operations), so only every N-th flush is actually
// timed and its reading is scaled by N; the other N-1 pay one atomic add.
const flushSampleEvery = 16

// Meter accumulates self-measured profiling cost. It is safe for
// concurrent use: every field is atomic, and all recording paths are a
// few atomic adds. A nil *Meter is valid and records nothing — the
// instrumented seams gate on the nil check, so an ungoverned session pays
// only a pointer compare.
type Meter struct {
	nanos  [NumSources]atomic.Int64
	events [NumSources]atomic.Int64
	// flushCtr elects the 1-in-flushSampleEvery flushes that are timed.
	flushCtr atomic.Int64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{} }

// SampleFlush reports whether this epoch flush should be timed; the
// caller then passes the measured duration to RecordFlush. Every call
// counts one flush event regardless.
func (m *Meter) SampleFlush() bool {
	if m == nil {
		return false
	}
	m.events[SrcFlush].Add(1)
	return m.flushCtr.Add(1)%flushSampleEvery == 0
}

// RecordFlush folds one timed flush, scaled back up by the sampling rate
// so the accumulated nanos estimate the cost of *all* flushes.
func (m *Meter) RecordFlush(d time.Duration) {
	if m == nil {
		return
	}
	m.nanos[SrcFlush].Add(int64(d) * flushSampleEvery)
}

// Record folds one timed event of a cold source (GC walks, window folds
// and snapshots are always timed — they are rare and individually large).
func (m *Meter) Record(s Source, d time.Duration) {
	if m == nil {
		return
	}
	m.nanos[s].Add(int64(d))
	m.events[s].Add(1)
}

// Nanos reports the accumulated (estimated) profiling nanos per source.
func (m *Meter) Nanos() [NumSources]int64 {
	var out [NumSources]int64
	if m == nil {
		return out
	}
	for i := range out {
		out[i] = m.nanos[i].Load()
	}
	return out
}

// Events reports the accumulated event counts per source.
func (m *Meter) Events() [NumSources]int64 {
	var out [NumSources]int64
	if m == nil {
		return out
	}
	for i := range out {
		out[i] = m.events[i].Load()
	}
	return out
}
