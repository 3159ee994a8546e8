// Package faults is the registry-based fault-injection harness for the
// robustness machinery (docs/ROBUSTNESS.md). Tests — and the chaos
// harness (internal/chaos) — arm a Plan describing which faults to
// inject, and the production code consults the registry at cold seams
// only: rule evaluation, snapshot acquisition and persistence, governor
// cost readings and verification scheduling (the full catalogue, with
// every production call site and its disarmed cost, is tabulated in
// docs/ROBUSTNESS.md). With no plan armed each hook costs one atomic
// pointer load on its cold path; the per-operation hot paths never touch
// the registry.
//
// The registry is process-global, so tests that arm a plan must Disarm it
// before returning (use defer or ArmT) and must not run in t.Parallel
// with other fault-injection tests; Arm fails loudly when a different
// plan is already armed.
package faults

import (
	"sync/atomic"
)

// Plan describes the faults to inject. Nil hooks are inactive; hooks may be
// called from any goroutine and must be safe for concurrent use (use
// atomics for fire-N-times counters).
type Plan struct {
	// RuleEvalPanic, when it returns fire=true, makes the online
	// selector's rule evaluation panic with the returned value — the
	// "misbehaving rule set" fault.
	RuleEvalPanic func() (value any, fire bool)
	// CorruptSnapshot may replace (or mutate and return) the profile the
	// online selector is about to evaluate for ctxKey — the "corrupted
	// snapshot" fault. The snapshot is passed as any (a *profiler.Profile
	// at the adaptive call sites) so this package stays dependency-free
	// and importable from every layer. Returning snapshot unchanged passes
	// through; returning nil simulates a vanished context.
	CorruptSnapshot func(ctxKey uint64, snapshot any) any
	// TornWrite, when it returns fire=true, replaces the bytes a snapshot
	// writer is about to persist with the returned slice — typically a
	// prefix, simulating a crash (or full disk) mid-write. Consulted by
	// profiler.WriteProfilesFile after serialization, before any I/O.
	TornWrite func(data []byte) (torn []byte, fire bool)
	// CorruptRecord may mutate one serialized snapshot record before it is
	// written. index is the zero-based record position; returning fire=false
	// leaves the record untouched. Consulted by profiler.WriteProfiles for
	// every record — the "bit rot / partial overwrite" fault. The writer
	// reuses record's bytes after the call, so a hook that keeps them copies.
	CorruptRecord func(index int, record []byte) (mutated []byte, fire bool)
	// OverheadSpike may inflate the profiling-cost reading the overhead
	// governor took for one source ("flush", "gcWalk", "windowFold") this
	// tick — the "profiling pathologically expensive" fault that drives
	// the degradation-ladder tests. Returning fire=false keeps the real
	// measurement.
	OverheadSpike func(source string, nanos int64) (inflated int64, fire bool)
	// SnapshotIO, when it returns fire=true, makes a snapshot file
	// operation fail with the returned error before touching the
	// filesystem — the "disk died / mount vanished" fault. op is "write"
	// (profiler.WriteProfilesFile) or "read" (ReadProfilesFileReport);
	// path is the target file. A nil error with fire=true still fails the
	// operation (a generic injected I/O error is synthesized).
	SnapshotIO func(op, path string) (err error, fire bool)
	// VerifySkew may replace the delay (in allocations) until the online
	// selector's next verification of ctxKey — the "verification clock
	// skew" fault: a skewed schedule judges decisions on evidence windows
	// of the wrong age. Consulted wherever the selector schedules a
	// verification; the returned delay is clamped to at least 1 so skew
	// can reorder checks but never wedge the schedule.
	VerifySkew func(ctxKey uint64, delay int64) (skewed int64, fire bool)
}

var active atomic.Pointer[Plan]

// rearmNote is the failure message for overlapping Arm calls — the package
// doc's contract, enforced: the registry is process-global, so tests that
// arm a plan must Disarm it before returning (use defer or ArmT) and must
// not run in t.Parallel with other fault-injection tests.
const rearmNote = "faults: Arm: a plan is already armed — the registry is " +
	"process-global, so tests that arm a plan must Disarm it before " +
	"returning (use defer or ArmT) and must not run in t.Parallel with " +
	"other fault-injection tests"

// Arm installs the plan; it stays active until Disarm. Arming while a
// *different* plan is armed panics instead of silently replacing it:
// overlapping fault-injection tests would otherwise invalidate each
// other's hooks without any signal. Re-arming the identical plan is a
// no-op; Arm(nil) is equivalent to Disarm.
func Arm(p *Plan) {
	if p == nil {
		active.Store(nil)
		return
	}
	if old := active.Swap(p); old != nil && old != p {
		panic(rearmNote)
	}
}

// TB is the subset of *testing.T that ArmT needs. Declared locally so this
// production-linked package never imports testing.
type TB interface {
	Helper()
	Cleanup(func())
}

// ArmT arms the plan for the duration of one test and auto-Disarms it via
// t.Cleanup, so a failing (or forgetful) test can never leak its faults
// into the rest of the suite. The registry is process-global: tests using
// ArmT still must not run in t.Parallel with other fault-injection tests.
func ArmT(t TB, p *Plan) {
	t.Helper()
	Arm(p)
	t.Cleanup(Disarm)
}

// Disarm removes any armed plan.
func Disarm() { active.Store(nil) }

// Armed reports whether a plan is active.
func Armed() bool { return active.Load() != nil }

// RuleEvalPanic consults the armed plan's rule-evaluation fault. Called by
// the online selector's decide once it holds the context's snapshot, just
// before it evaluates the rules.
func RuleEvalPanic() (any, bool) {
	pl := active.Load()
	if pl == nil || pl.RuleEvalPanic == nil {
		return nil, false
	}
	return pl.RuleEvalPanic()
}

// CorruptSnapshot passes a freshly-taken profile through the armed plan's
// snapshot fault. Called by the online selector on every snapshot it is
// about to score.
func CorruptSnapshot(ctxKey uint64, snapshot any) any {
	pl := active.Load()
	if pl == nil || pl.CorruptSnapshot == nil {
		return snapshot
	}
	return pl.CorruptSnapshot(ctxKey, snapshot)
}

// TornWrite passes serialized snapshot bytes through the armed plan's
// torn-write fault. Called by the atomic snapshot writer before any I/O.
func TornWrite(data []byte) ([]byte, bool) {
	pl := active.Load()
	if pl == nil || pl.TornWrite == nil {
		return data, false
	}
	return pl.TornWrite(data)
}

// CorruptRecord passes one serialized snapshot record through the armed
// plan's record-corruption fault.
func CorruptRecord(index int, record []byte) ([]byte, bool) {
	pl := active.Load()
	if pl == nil || pl.CorruptRecord == nil {
		return record, false
	}
	return pl.CorruptRecord(index, record)
}

// OverheadSpike passes one governor cost reading through the armed plan's
// overhead fault.
func OverheadSpike(source string, nanos int64) (int64, bool) {
	pl := active.Load()
	if pl == nil || pl.OverheadSpike == nil {
		return nanos, false
	}
	return pl.OverheadSpike(source, nanos)
}

// SnapshotIO consults the armed plan's snapshot file-I/O fault. Called by
// the snapshot writer and the file reader before touching the filesystem.
func SnapshotIO(op, path string) (error, bool) {
	pl := active.Load()
	if pl == nil || pl.SnapshotIO == nil {
		return nil, false
	}
	return pl.SnapshotIO(op, path)
}

// VerifySkew passes one verification-scheduling delay through the armed
// plan's clock-skew fault. Called by the online selector wherever it
// schedules a verification; the result is clamped to at least 1.
func VerifySkew(ctxKey uint64, delay int64) (int64, bool) {
	pl := active.Load()
	if pl == nil || pl.VerifySkew == nil {
		return delay, false
	}
	skewed, fire := pl.VerifySkew(ctxKey, delay)
	if fire && skewed < 1 {
		skewed = 1
	}
	return skewed, fire
}

// PanicOnce returns a RuleEvalPanic hook that fires exactly n times with
// the given panic value, then goes quiet — the common "transient bug"
// shape. Safe for concurrent use.
func PanicOnce(value any, n int64) func() (any, bool) {
	var remaining atomic.Int64
	remaining.Store(n)
	return func() (any, bool) {
		if remaining.Add(-1) >= 0 {
			return value, true
		}
		return nil, false
	}
}
