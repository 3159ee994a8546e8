package adaptive

// Guarded adaptation: outcome verification, automatic rollback and
// quarantine for online decisions (docs/ROBUSTNESS.md). The paper warns
// that online decisions rest on partial evidence — "even a single
// collection with large size may considerably degrade performance"
// (§5.4) — so every applied replacement is treated as a revocable
// hypothesis. After a decision is applied, the profiler keeps a
// post-decision evidence window for the context; every VerifyEvery
// allocations the selector scores that window against the decision's
// premise and rolls back to the declared default when the premise has
// stopped holding.

import (
	"fmt"
	"sort"

	"chameleon/internal/collections"
	"chameleon/internal/faults"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
	"chameleon/internal/spec"
)

// Status is a context's position in the guarded-adaptation state machine:
//
//	Undecided -> Default                   (rules declined, or eval error)
//	Undecided -> Active -> Verified        (premise held on fresh evidence)
//	Active|Verified -> Quarantined         (premise violated, or panic)
//	Quarantined -> Active|Default|...      (re-decided after backoff)
//
// Quarantine rolls the context back to its declared default and blocks
// re-decision for an exponentially growing number of allocations, so a
// flapping context converges to the default instead of oscillating.
type Status int

const (
	// StatusUndecided: still accumulating evidence; default in use.
	StatusUndecided Status = iota
	// StatusDefault: decided, no replacement applied (rules declined or
	// evaluation failed non-panically).
	StatusDefault
	// StatusActive: a replacement is applied but not yet verified against
	// post-decision evidence.
	StatusActive
	// StatusVerified: the applied replacement survived at least one
	// verification; verification keeps running.
	StatusVerified
	// StatusQuarantined: the decision was rolled back (premise violation
	// or contained panic); the default is in use until backoff expires.
	StatusQuarantined
)

// String renders the status for reports.
func (s Status) String() string {
	switch s {
	case StatusUndecided:
		return "undecided"
	case StatusDefault:
		return "default"
	case StatusActive:
		return "active"
	case StatusVerified:
		return "verified"
	case StatusQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// applied reports whether a context in this status hands its cached
// decision to new allocations.
func (s Status) applied() bool { return s == StatusActive || s == StatusVerified }

// ContextStatus is one context's externally visible guarded-adaptation
// state, as reported by Selector.Statuses.
type ContextStatus struct {
	Context uint64
	Status  Status
	// Decision is the cached decision; meaningful only when Applied.
	Decision collections.Decision
	// Applied reports whether new allocations receive Decision (rather
	// than the declared default).
	Applied bool
	// Allocs is the context's allocation count through the selector.
	Allocs int64
	// Panics counts contained rule-evaluation panics charged to this
	// context; Rollbacks counts premise-violation reversions.
	Panics    int64
	Rollbacks int64
	// Backoff is the length, in allocations, of the context's last
	// quarantine (0 until the first one). It is kept after the quarantine
	// ends: the next quarantine doubles it.
	Backoff int64
	// LastError is the most recent evaluation error, panic or rollback
	// reason ("" when none). It is kept after the context is re-decided.
	LastError string
}

// Statuses reports every context's guarded-adaptation state, sorted by
// context key for stable output.
func (s *Selector) Statuses() []ContextStatus {
	var out []ContextStatus
	s.state.Range(func(k, v any) bool {
		st := v.(*decisionState)
		st.mu.Lock()
		out = append(out, ContextStatus{
			Context:   k.(uint64),
			Status:    st.status,
			Decision:  st.decision,
			Applied:   st.status.applied(),
			Allocs:    st.allocs.Load(),
			Panics:    st.panics,
			Rollbacks: st.rollbacks,
			Backoff:   st.backoff,
			LastError: st.lastErr,
		})
		st.mu.Unlock()
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Context < out[j].Context })
	return out
}

// StuckClaims reports the contexts whose deciding claim is currently held,
// sorted by key. The claim is transient — taken while a threshold-crossing
// allocation evaluates or verifies, released by defer even across panics —
// so on a quiescent selector (no Select calls in flight) a non-empty result
// means a claim leaked and the context is wedged: it will never decide,
// verify, or re-decide again. The chaos no-wedge auditor calls this after
// every run; it is a point-in-time probe and only meaningful at quiescence.
func (s *Selector) StuckClaims() []uint64 {
	var out []uint64
	s.state.Range(func(k, v any) bool {
		st := v.(*decisionState)
		st.mu.Lock()
		if st.deciding {
			out = append(out, k.(uint64))
		}
		st.mu.Unlock()
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Verifies reports how many verifications found the decision's premise
// still holding.
func (s *Selector) Verifies() int64 { return s.verifies.Load() }

// Rollbacks reports how many applied decisions were reverted to the
// declared default after a premise violation.
func (s *Selector) Rollbacks() int64 { return s.rollbacks.Load() }

// Quarantines reports how many times contexts entered quarantine
// (rollbacks plus contained panics).
func (s *Selector) Quarantines() int64 { return s.quarantines.Load() }

// Panics reports how many rule-evaluation panics were contained.
func (s *Selector) Panics() int64 { return s.panicsTotal.Load() }

// Disabled reports whether the panic budget is exhausted and the selector
// answers every Select with the default; the second result is the panic
// that tripped it.
func (s *Selector) Disabled() (bool, string) {
	if !s.disabled.Load() {
		return false, ""
	}
	if msg := s.disabledBy.Load(); msg != nil {
		return true, *msg
	}
	return true, ""
}

// Pause suspends (or resumes) claiming new decisions and verifications;
// cached decisions keep applying and Select stays cheap. The overhead
// governor pauses the selector in the heap-only and off tiers, where
// instance profiling is shed and evidence windows starve — verification
// would otherwise judge healthy decisions on vacuous windows. Unpausing
// resumes claims on the next threshold crossing; a window that stayed
// open while paused is still subject to the MinWindowEvidence gate, so
// starved evidence postpones judgment rather than triggering rollback.
func (s *Selector) Pause(p bool) { s.paused.Store(p) }

// Paused reports whether decision/verification claiming is suspended.
func (s *Selector) Paused() bool { return s.paused.Load() }

// runVerify scores one claimed verification: it snapshots the context's
// post-decision evidence window and checks the applied decision's premise
// against it. A violation rolls the context back to the declared default
// and quarantines it; a pass marks it Verified and opens a fresh window so
// later verifications judge fresh evidence, not the whole past.
func (s *Selector) runVerify(st *decisionState, ctxKey uint64) {
	defer s.release(st)
	defer s.contain(st, ctxKey)

	st.mu.Lock()
	rule, dec, status := st.rule, st.decision, st.status
	st.mu.Unlock()
	if status != StatusActive && status != StatusVerified {
		return // rolled back or re-decided since the claim; nothing to verify
	}

	// Every applied decision has a window: runDecide opens it before it
	// releases its claim, and only a quarantine, which cancels
	// verification, closes it. A nil win is a snapshot the fault seam
	// vanished.
	win := throughFaults(ctxKey, s.prof.WindowSnapshot(ctxKey))
	if win == nil || win.Evidence < s.opts.MinWindowEvidence {
		// Not enough post-decision evidence to pass judgment; the next
		// VerifyEvery boundary retries.
		return
	}

	if reason, violated := s.premiseViolated(rule, dec, win); violated {
		s.rollbacks.Add(1)
		st.mu.Lock()
		st.rollbacks++
		s.quarantineLocked(st, reason)
		st.mu.Unlock()
		s.prof.CloseWindow(ctxKey)
		return
	}

	s.verifies.Add(1)
	st.mu.Lock()
	if st.status == StatusActive {
		st.status = StatusVerified
	}
	st.mu.Unlock()
	// Restart the evidence window: each verification judges behaviour
	// since the previous one, so a later phase shift is not averaged away
	// by a long well-behaved history.
	s.prof.OpenWindow(ctxKey)
}

// premiseViolated checks an applied decision against a post-decision
// evidence window and returns the violation reason if its premise no
// longer holds.
func (s *Selector) premiseViolated(rule *rules.Rule, dec collections.Decision, win *profiler.Profile) (string, bool) {
	// A tuned capacity that the workload still outgrows is resizing again —
	// the tuning bought nothing and undersizes the next phase.
	if dec.Capacity > 0 && win.MaxSizeMax > float64(dec.Capacity) {
		return fmt.Sprintf("tuned capacity %d still resizing: post-decision maxSize %.0f",
			dec.Capacity, win.MaxSizeMax), true
	}
	// Singleton implementations upgrade (allocate a real backing store) as
	// soon as a second element arrives; sizes above 1 mean every instance
	// pays the upgrade on top of the default's cost.
	switch dec.Impl {
	case spec.KindSingletonList, spec.KindSingletonMap:
		if win.MaxSizeMax > 1 {
			return fmt.Sprintf("singleton premise violated: post-decision maxSize %.0f > 1",
				win.MaxSizeMax), true
		}
	}
	// Re-check the matched rule's guard on the window. Windows carry trace
	// statistics only (no heap data — windowed GC attribution would need
	// per-window heap walks), so only rules reading trace metrics can be
	// re-checked this way.
	if rule != nil && !rule.ReadsHeap() {
		_, ok, err := rules.EvalRule(rule, win, s.opts.Rules.Params())
		if err == nil && !ok {
			return "matched rule's guard no longer holds on post-decision evidence", true
		}
	}
	return "", false
}

// throughFaults passes a snapshot through the fault-injection registry,
// restoring its type (the registry is untyped so it can stay
// dependency-free). A hook returning nil — or anything that is not a
// profile — reads as a vanished context.
func throughFaults(ctxKey uint64, p *profiler.Profile) *profiler.Profile {
	out, _ := faults.CorruptSnapshot(ctxKey, p).(*profiler.Profile)
	return out
}

// nextBackoff is the quarantine length that follows cur: base for the
// first quarantine (cur 0), then double the previous length, capped at
// limit and never reset. A context that keeps failing thus gets
// geometrically rarer chances and converges instead of flapping.
func nextBackoff(cur, base, limit int64) int64 {
	switch {
	case cur <= 0:
		return min(base, limit)
	case cur > limit/2:
		return limit
	}
	return cur * 2
}

// quarantineLocked rolls the context back to its declared default and
// blocks re-decision for the next backoff period (nextBackoff from
// QuarantineBackoff, capped at BackoffMax), so a context whose behaviour
// keeps invalidating decisions — a flapping context — converges to the
// default. Callers hold st.mu.
func (s *Selector) quarantineLocked(st *decisionState, reason string) {
	st.backoff = nextBackoff(st.backoff, s.opts.QuarantineBackoff, s.opts.BackoffMax)
	st.rule = nil
	st.status = StatusQuarantined
	st.verifyAt = 0
	st.nextCheck = st.allocs.Load() + st.backoff
	st.lastErr = reason
	st.publishFastLocked()
	s.quarantines.Add(1)
}

// notePanic charges a contained panic: the context quarantines like a
// rollback, and past the selector-wide panic budget the whole selector
// degrades to default decisions — a broken rule set must not keep taking
// fresh contexts hostage.
func (s *Selector) notePanic(st *decisionState, ctxKey uint64, msg string) {
	total := s.panicsTotal.Add(1)
	st.mu.Lock()
	st.panics++
	s.quarantineLocked(st, msg)
	st.mu.Unlock()
	s.prof.CloseWindow(ctxKey)
	if s.opts.PanicBudget > 0 && total >= s.opts.PanicBudget &&
		s.disabled.CompareAndSwap(false, true) {
		s.disabledBy.Store(&msg)
	}
}
