// Package adaptive implements Chameleon's fully-automatic online mode
// (paper §3.3.2, §5.4): implementation selection performed at allocation
// time, inside the runtime, with no user involvement. Replacement is
// localized — it happens when a collection object is allocated, so no
// stop-the-world phase is needed (unlike GC switching, §6).
//
// Decisions are necessarily based on partial information: at a context's
// MinEvidence-th allocation the selector evaluates the rule set on that
// context's statistics so far (live and dead instances alike, whether or
// not any has died yet) and caches the decision. The paper admits the
// risk plainly — "even a single collection with large size may
// considerably degrade performance" — so decisions are treated as
// revocable hypotheses: after a replacement is applied, the
// selector keeps scoring post-decision evidence from the profiler's
// evidence windows, and a decision whose premise stops holding is rolled
// back to the declared default and quarantined with exponential backoff
// (the guarded-adaptation state machine of docs/ROBUSTNESS.md). Decisions
// and verifications run under one deferred recover: a panicking rule set
// degrades the context — and past a panic budget, the whole selector — to
// default decisions instead of crashing the allocating goroutine.
package adaptive

import (
	"fmt"
	"sync"
	"sync/atomic"

	"chameleon/internal/advisor"
	"chameleon/internal/collections"
	"chameleon/internal/faults"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
	"chameleon/internal/spec"
)

// Options configure the online selector.
type Options struct {
	// Rules is the bound rule set (rules.Bind); nil selects the built-in
	// Table 2 rules.
	Rules *rules.RuleSet
	// MinEvidence is the allocation count at which the selector decides
	// a context: its MinEvidence-th allocation through the selector
	// evaluates the rules on the statistics gathered so far, whether or
	// not any instance has died. A decision sticks (the paper's
	// behaviour) unless verification rolls it back; a quarantined context
	// is re-decided after its backoff expires. The default is 32.
	MinEvidence int64
	// VerifyEvery re-checks an applied decision against post-decision
	// evidence after this many further allocations from the context
	// (0 = the default of 64; negative disables outcome verification,
	// restoring the paper's decide-and-stick behaviour).
	VerifyEvery int64
	// MinWindowEvidence is the number of instances an evidence window must
	// have observed before a verification passes judgment; below it the
	// check is postponed to the next VerifyEvery boundary. The default
	// is 8.
	MinWindowEvidence int64
	// QuarantineBackoff is the initial quarantine length, in allocations,
	// after a rollback or contained panic. It doubles on every further
	// quarantine of the same context, every length capped at BackoffMax
	// (nextBackoff), so a flapping context converges to the declared
	// default instead of oscillating. The default is 4*MinEvidence.
	QuarantineBackoff int64
	// BackoffMax caps the exponential quarantine backoff. The default
	// is 1<<16 allocations.
	BackoffMax int64
	// PanicBudget is the number of contained rule-evaluation panics after
	// which the whole selector degrades to default decisions (0 = the
	// default of 8; negative = no selector-wide budget, contexts still
	// quarantine individually).
	PanicBudget int64
}

func (o Options) fill() Options {
	if o.Rules == nil {
		o.Rules = rules.Builtin()
	}
	if o.MinEvidence <= 0 {
		o.MinEvidence = 32
	}
	if o.VerifyEvery == 0 {
		o.VerifyEvery = 64
	}
	if o.MinWindowEvidence <= 0 {
		o.MinWindowEvidence = 8
	}
	if o.QuarantineBackoff <= 0 {
		o.QuarantineBackoff = 4 * o.MinEvidence
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 1 << 16
	}
	if o.PanicBudget == 0 {
		o.PanicBudget = 8
	}
	return o
}

// neverCheck is a sentinel allocation count that never arrives.
const neverCheck = 1 << 62

// decisionState is one context's cached decision and its guarded lifecycle
// (see Status). The mutable fields are guarded by its own mutex, except
// allocs (atomic, so the lock-free fast path can count) and fast (the
// published fast-path snapshot). Hammering one context from many goroutines
// contends only on that context's state, and distinct contexts do not
// contend at all.
type decisionState struct {
	mu       sync.Mutex
	allocs   atomic.Int64
	deciding bool // a goroutine is evaluating or verifying outside the lock
	// nextCheck is the allocation count that claims the next rule
	// evaluation: MinEvidence at first, the end of the backoff while
	// quarantined, neverCheck once the context is decided.
	nextCheck int64
	decision  collections.Decision

	// fast is the lock-free snapshot of the cached outcome: allocations
	// numbered below fast.next return it without touching mu. It is
	// republished (under mu) at every point that mutates the cached
	// decision or moves a threshold, so the fast path can never serve a
	// stale decision past the allocation that should reconsider it.
	fast atomic.Pointer[fastDecision]

	status    Status      // decision is applied exactly when status.applied()
	rule      *rules.Rule // rule backing the applied decision (nil otherwise)
	verifyAt  int64       // allocation count of the next verification (0: none)
	backoff   int64       // current quarantine length; doubles per quarantine
	panics    int64
	rollbacks int64
	lastErr   string
}

// fastDecision is the immutable snapshot served by the lock-free Select
// fast path: the cached outcome plus the allocation count at which the
// slow path must run again (the nearest of nextCheck and verifyAt).
type fastDecision struct {
	use  bool
	dec  collections.Decision
	next int64
}

// publishFastLocked republishes the fast-path snapshot from the current
// cached state. Callers hold st.mu.
func (st *decisionState) publishFastLocked() {
	next := st.nextCheck
	if st.verifyAt > 0 && st.verifyAt < next {
		next = st.verifyAt
	}
	st.fast.Store(&fastDecision{use: st.status.applied(), dec: st.decision, next: next})
}

// activateLocked applies dec (backed by rule, which may be nil) to the
// context: the status becomes Active, the context is never re-decided
// unless verification quarantines it, and the first verification is
// scheduled. Callers hold st.mu; once they release it they open the
// evidence window the verification is judged on (never under st.mu:
// profiler shard locks and state locks are taken one at a time).
func (s *Selector) activateLocked(st *decisionState, ctxKey uint64, dec collections.Decision, rule *rules.Rule) {
	st.decision, st.rule, st.status = dec, rule, StatusActive
	st.nextCheck = neverCheck
	if s.opts.VerifyEvery > 0 {
		st.verifyAt = st.allocs.Load() + s.verifyDelay(ctxKey)
	}
	st.publishFastLocked()
}

// selectAction is the work a Select call claimed for this allocation.
type selectAction int

const (
	actNone selectAction = iota
	actDecide
	actVerify
)

// Selector is an online implementation selector; it implements
// collections.Selector and is safe for concurrent use. The hot path (a
// context with a cached decision) takes exactly one mutex acquisition — the
// context's own — and rule evaluation always runs outside every lock.
type Selector struct {
	prof  *profiler.Profiler
	opts  Options
	state sync.Map // uint64 -> *decisionState

	// replacements counts applied online replacements (for reports).
	replacements atomic.Int64
	// decides counts rule evaluations, to assert exactly-once decisions
	// under concurrency in tests.
	decides atomic.Int64

	// Guarded-adaptation counters (see docs/ROBUSTNESS.md).
	verifies    atomic.Int64 // verifications whose premise held
	rollbacks   atomic.Int64 // premise violations that reverted a decision
	quarantines atomic.Int64 // quarantine entries (rollbacks + panics)
	panicsTotal atomic.Int64 // contained rule-evaluation panics
	disabled    atomic.Bool  // panic budget exhausted: defaults only
	disabledBy  atomic.Pointer[string]

	// paused suspends claiming new decisions and verifications (cached
	// decisions keep applying). The overhead governor sets it in the
	// heap-only and off tiers: with instance profiling shed, windows
	// starve, and judging a decision on starved evidence would quarantine
	// healthy contexts (docs/ROBUSTNESS.md "Degradation ladder").
	paused atomic.Bool
}

// New builds an online selector reading evidence from prof.
func New(prof *profiler.Profiler, opts Options) *Selector {
	return &Selector{prof: prof, opts: opts.fill()}
}

// Replacements reports how many allocations received a non-default
// implementation so far.
func (s *Selector) Replacements() int64 { return s.replacements.Load() }

// Decides reports how many rule evaluations have run (one per decided
// context unless a quarantine expired).
func (s *Selector) Decides() int64 { return s.decides.Load() }

// Decisions reports the currently applied per-context decisions.
func (s *Selector) Decisions() map[uint64]collections.Decision {
	out := make(map[uint64]collections.Decision)
	s.state.Range(func(k, v any) bool {
		st := v.(*decisionState)
		st.mu.Lock()
		if st.status.applied() {
			out[k.(uint64)] = st.decision
		}
		st.mu.Unlock()
		return true
	})
	return out
}

// Select implements collections.Selector.
func (s *Selector) Select(ctxKey uint64, declared spec.Kind, def collections.Decision) collections.Decision {
	if ctxKey == 0 {
		// No context: paper §3.3.2 — obtaining allocation context cheaply
		// is the precondition for online replacement; without it we keep
		// the declared implementation.
		return def
	}
	if s.disabled.Load() {
		// Panic budget exhausted: the selector as a whole is degraded to
		// default decisions (docs/ROBUSTNESS.md containment contract).
		return def
	}
	v, ok := s.state.Load(ctxKey)
	if !ok {
		v, _ = s.state.LoadOrStore(ctxKey, &decisionState{nextCheck: s.opts.MinEvidence})
	}
	st := v.(*decisionState)

	// Lock-free fast path: while this allocation is strictly below the next
	// threshold, serve the published snapshot without taking st.mu. This is
	// what keeps a hot shared context from serializing every allocating
	// goroutine on one mutex — after a decision lands, the steady state is
	// one atomic add and one pointer load.
	n := st.allocs.Add(1)
	if f := st.fast.Load(); f != nil && n < f.next {
		if f.use {
			s.replacements.Add(1)
			return f.dec
		}
		return def
	}

	paused := s.paused.Load()
	st.mu.Lock()
	action := actNone
	if !st.deciding && !paused {
		if n >= st.nextCheck {
			// Claim the evaluation: concurrent allocations crossing the
			// threshold together see deciding=true (or the bumped
			// nextCheck) and use the cached state, so each crossing
			// evaluates the rules exactly once.
			action = actDecide
			st.deciding = true
			st.nextCheck = neverCheck
		} else if st.verifyAt > 0 && n >= st.verifyAt {
			// Claim a verification of the applied decision's premise; the
			// same deciding flag keeps evaluation and verification from
			// racing each other on one context.
			action = actVerify
			st.deciding = true
			st.verifyAt = st.allocs.Load() + s.verifyDelay(ctxKey)
		}
	}
	st.publishFastLocked()
	use, dec := st.status.applied(), st.decision
	st.mu.Unlock()

	if action != actNone {
		switch action {
		case actDecide:
			s.runDecide(st, ctxKey, declared, def)
		case actVerify:
			s.runVerify(st, ctxKey)
		}
		// Re-read so the claiming allocation itself sees the outcome.
		st.mu.Lock()
		use, dec = st.status.applied(), st.decision
		st.mu.Unlock()
	}

	if use {
		s.replacements.Add(1)
		return dec
	}
	return def
}

// verifyDelay is the distance (in allocations) to the next verification of
// ctxKey: the configured VerifyEvery, passed through the clock-skew fault
// seam. The seam clamps a fired result to at least 1, so an armed skew can
// reorder or compress the verification schedule but never wedge it.
func (s *Selector) verifyDelay(ctxKey uint64) int64 {
	d, _ := faults.VerifySkew(ctxKey, s.opts.VerifyEvery)
	return d
}

// release clears the deciding claim. It is installed with defer on every
// evaluation/verification path, so the claim is released even when the
// work panics — a wedged claim would silence the context forever (the
// deciding-flag leak this guards against has a regression test).
func (s *Selector) release(st *decisionState) {
	st.mu.Lock()
	st.deciding = false
	st.mu.Unlock()
}

// contain recovers a panic escaping evaluation or verification and
// converts it into a quarantined context plus a charge against the
// selector-wide panic budget. It is installed with defer after release, so
// it runs first and release still clears the claim afterwards.
func (s *Selector) contain(st *decisionState, ctxKey uint64) {
	if r := recover(); r != nil {
		s.notePanic(st, ctxKey, fmt.Sprintf("panic: %v", r))
	}
}

// runDecide evaluates the rule set for one claimed threshold crossing and
// publishes the outcome into the context's state. A panic out of the
// evaluation is contained by the deferred contain.
func (s *Selector) runDecide(st *decisionState, ctxKey uint64, declared spec.Kind, def collections.Decision) {
	defer s.release(st)
	defer s.contain(st, ctxKey)
	s.decides.Add(1)
	d, rule, err := s.decide(ctxKey, declared, def)
	st.mu.Lock()
	if rule == nil {
		// The rules declined, or evaluation failed without a panic
		// (unknown metric, unbound parameter; the error is recorded):
		// the declared default stays for good.
		st.decision, st.rule = d, nil
		st.status, st.verifyAt = StatusDefault, 0
		if err != nil {
			st.lastErr = err.Error()
		}
		st.publishFastLocked()
		st.mu.Unlock()
		return
	}
	s.activateLocked(st, ctxKey, d, rule)
	st.mu.Unlock()
	if s.opts.VerifyEvery > 0 {
		s.prof.OpenWindow(ctxKey)
	}
}

// decide snapshots one context, evaluates the rule set and keeps the
// first match that is actionable at allocation time (rules.Actionable),
// translated as a plan translates it (advisor.Decide): cross-ADT advice
// (e.g. ArrayList -> LinkedHashSet) requires a program change and is
// skipped online. The rule backing a decision to apply is returned so
// verification can re-check its guard against post-decision evidence; a
// nil rule means keep def.
func (s *Selector) decide(ctxKey uint64, declared spec.Kind, def collections.Decision) (collections.Decision, *rules.Rule, error) {
	p := throughFaults(ctxKey, s.prof.SnapshotContext(ctxKey))
	if p == nil {
		return def, nil, nil
	}
	if v, fire := faults.RuleEvalPanic(); fire {
		panic(v)
	}
	ms, err := rules.Eval(s.opts.Rules, p)
	if err != nil {
		return def, nil, err
	}
	m, ok := rules.Actionable(ms, declared)
	if !ok {
		return def, nil, nil
	}
	return advisor.Decide(m, def), m.Rule, nil
}
