package advisor

import (
	"fmt"
	"sort"
	"strings"

	"chameleon/internal/collections"
	"chameleon/internal/rules"
	"chameleon/internal/spec"
)

// Plan is a fixed per-context implementation assignment derived from a
// report — the "(or by the tool)" half of §3.3.2: "The suggested
// implementations can then be applied by the programmer (or by the tool)
// and the program can be executed again (with or without profiling)."
//
// A Plan implements collections.Selector, so installing it on the next
// run's runtime applies every actionable suggestion at allocation time
// with a single map lookup — no per-allocation rule evaluation, unlike the
// fully-online mode.
type Plan struct {
	decisions map[uint64]PlanEntry
}

// PlanEntry is one compiled decision, exported for consumers that apply
// plans outside the allocation path — chameleon-apply rewrites source
// against these. Action distinguishes a full replacement (the site can be
// specialized onto a fixed constructor) from capacity-only tuning (the
// declared constructor stays, and with it the profiling).
type PlanEntry struct {
	// ContextKey is the interned allocation-context key the decision is for.
	ContextKey uint64
	// Context is the context's label.
	Context string
	// Decision is the implementation/capacity choice.
	Decision collections.Decision
	// Action is the rule action the decision came from (ActReplace or
	// ActSetCapacity; the advisory kinds never enter a plan).
	Action rules.ActionKind
	// Fix is the human-readable fix phrase (Describe of the match).
	Fix string
	// Rule is the rule whose match produced the decision. Hot publication
	// hands it to the guarded selector so post-publish verification can
	// re-check the guard against the session's own evidence.
	Rule *rules.Rule
}

// Entries reports every compiled decision, sorted by context label for
// determinism.
func (p *Plan) Entries() []PlanEntry {
	out := make([]PlanEntry, 0, len(p.decisions))
	for _, e := range p.decisions {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Context < out[j].Context })
	return out
}

// Entry reports the compiled decision for one context key.
func (p *Plan) Entry(ctxKey uint64) (PlanEntry, bool) {
	e, ok := p.decisions[ctxKey]
	return e, ok
}

// NewPlan extracts the actionable decisions from a report: same-ADT
// replacements (with their capacity suggestions) and capacity tuning.
// Cross-ADT advice and the advisory fixes require program changes and are
// left out, as is any context whose fleet annotation marks it conflicted —
// sources that disagree about a context's behaviour yield pooled
// statistics no single process exhibits, and a decision compiled from them
// would be wrong for every shard at once.
func NewPlan(rep *Report) *Plan {
	p := &Plan{decisions: make(map[uint64]PlanEntry)}
	for _, s := range rep.Suggestions {
		key := s.Profile.Context.Key()
		if key == 0 {
			continue
		}
		if s.Annotation != nil && s.Annotation.Conflicted {
			continue
		}
		declared := s.Profile.Declared
		m, ok := rules.Actionable(append([]rules.Match{s.Primary}, s.Others...), declared)
		if !ok {
			continue
		}
		p.decisions[key] = PlanEntry{
			ContextKey: key,
			Context:    s.Profile.Context.String(),
			Decision:   Decide(m, collections.Decision{Impl: declared}),
			Action:     m.Rule.Act.Kind,
			Fix:        Describe(m),
			Rule:       m.Rule,
		}
	}
	return p
}

// Decide translates an actionable match (rules.Actionable) into the
// decision for an allocation whose default is def. A replacement takes the
// rule's kind and a setCapacity match keeps def's; a match without a
// capacity keeps def's. Plans and the online selector both decide with it;
// a plan entry is compiled with a zero default capacity and re-translated
// for each allocation.
func Decide(m rules.Match, def collections.Decision) collections.Decision {
	if m.Rule.Act.Kind == rules.ActReplace {
		def.Impl = m.Rule.Act.Impl
	}
	if m.Capacity > 0 {
		def.Capacity = int(m.Capacity)
	}
	return def
}

// Len reports the number of contexts the plan rewrites.
func (p *Plan) Len() int { return len(p.decisions) }

// Select implements collections.Selector.
func (p *Plan) Select(ctxKey uint64, declared spec.Kind, def collections.Decision) collections.Decision {
	e, ok := p.decisions[ctxKey]
	if !ok {
		return def
	}
	// Re-translate the entry's match for this allocation.
	return Decide(rules.Match{Rule: e.Rule, Capacity: int64(e.Decision.Capacity)}, def)
}

// String renders the plan, one rewritten context per line, sorted by
// context for determinism.
func (p *Plan) String() string {
	var b strings.Builder
	for _, e := range p.Entries() {
		fmt.Fprintf(&b, "%s: %s\n", e.Context, e.Fix)
	}
	return b.String()
}

var _ collections.Selector = (*Plan)(nil)
