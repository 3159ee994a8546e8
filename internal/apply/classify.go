package apply

import (
	"fmt"

	"chameleon/internal/advisor"
	"chameleon/internal/analysis"
	"chameleon/internal/collections"
	"chameleon/internal/rules"
	"chameleon/internal/spec"
)

// Status is a site's rewrite verdict. The two rewrite statuses come
// first; everything else is a skip with the deciding reason baked into
// the value, so a listing is self-explanatory without a legend.
type Status string

const (
	// StatusReplace: the decision replaces the implementation; the call
	// moves to the concrete NewFixed* constructor and stops profiling.
	StatusReplace Status = "replace"
	// StatusRetune: a capacity-only decision; the call keeps its
	// profiled constructor with an updated Cap.
	StatusRetune Status = "retune"

	// StatusSkipLibrary: the site is inside the collections library or
	// the root re-export package, not client code.
	StatusSkipLibrary Status = "skip:library"
	// StatusSkipUnsafe: the safety analysis refuted specialization
	// (escape, identity, or assertion hazard — S001..S005).
	StatusSkipUnsafe Status = "skip:unsafe"
	// StatusSkipInherited: the site's kind is taken from a source
	// collection at run time (NewListFrom); there is no static decision
	// to apply.
	StatusSkipInherited Status = "skip:inherited"
	// StatusSkipForced: the site carries an Impl(...) override — the
	// programmer already pinned the implementation (the tuned-variant
	// idiom); apply defers to them.
	StatusSkipForced Status = "skip:forced"
	// StatusSkipOpaque: an option argument was not statically
	// resolvable, so the rewrite could drop or contradict it.
	StatusSkipOpaque Status = "skip:opaque-options"
	// StatusSkipDynamic: the site has no constant At label; its runtime
	// context key is a PC hash that cannot be joined statically.
	StatusSkipDynamic Status = "skip:dynamic-label"
	// StatusSkipUndecided: the snapshot produced no actionable decision
	// for the site's context.
	StatusSkipUndecided Status = "skip:undecided"
	// StatusSkipCrossADT: the decision's implementation belongs to a
	// different abstract type than the site allocates (defensive; the
	// plan compiler already rejects these).
	StatusSkipCrossADT Status = "skip:cross-adt"
	// StatusSkipSized: the decided capacity equals what the site
	// already declares; rewriting would be a no-op.
	StatusSkipSized Status = "skip:already-sized"
	// StatusSkipNoFixed: no fixed constructor exists for the decided
	// implementation (abstract kinds).
	StatusSkipNoFixed Status = "skip:no-fixed-constructor"
	// StatusSkipIntArray: the decision would move an int-specialized
	// site onto a generic implementation, or a generic site onto the
	// unboxed int array; both need a type-level judgment apply does not
	// make.
	StatusSkipIntArray Status = "skip:int-array"
)

// Rewrites reports whether the status rewrites source.
func (s Status) Rewrites() bool { return s == StatusReplace || s == StatusRetune }

// SiteDecision is one site's classification: the manifest record, the
// joined plan entry when one exists, and what (if anything) to rewrite.
type SiteDecision struct {
	// Site is the discovered site: manifest record and syntax.
	Site analysis.Site
	// Status is the verdict.
	Status Status
	// Reason elaborates the verdict for human listings.
	Reason string
	// Decided reports whether a plan entry joined the site; Entry is
	// that entry when it did.
	Decided bool
	Entry   advisor.PlanEntry
	// Constructor is the replacement constructor name (StatusReplace).
	Constructor string
	// Capacity is the capacity to write; 0 keeps the site's Cap as-is.
	Capacity int
}

// classify joins one discovered site against the plan and decides what
// to do with it. The order of checks is from cheapest-to-explain
// outward: structural exclusions first, then safety, then the join,
// then decision-specific vetoes.
func classify(site analysis.Site, plan *advisor.Plan) SiteDecision {
	d := SiteDecision{Site: site}

	if analysis.IsLibraryPackage(site.Pkg) {
		d.Status, d.Reason = StatusSkipLibrary, "allocation inside the collections library"
		return d
	}
	if site.Inherited {
		d.Status, d.Reason = StatusSkipInherited, "kind inherited from the source collection at run time"
		return d
	}
	if !site.Safe {
		d.Status, d.Reason = StatusSkipUnsafe, unsafeReason(site)
		return d
	}
	if site.Forced != "" {
		d.Status, d.Reason = StatusSkipForced, "implementation pinned with Impl("+site.Forced+")"
		return d
	}
	if site.OpaqueOptions {
		d.Status, d.Reason = StatusSkipOpaque, "option arguments not statically resolvable"
		return d
	}
	if site.LabelKind != analysis.LabelStatic || site.ContextKey == 0 {
		d.Status, d.Reason = StatusSkipDynamic, "no constant At label; runtime context key is not statically derivable"
		return d
	}

	entry, ok := plan.Entry(site.ContextKey)
	if !ok {
		d.Status, d.Reason = StatusSkipUndecided, "snapshot holds no actionable decision for this context"
		return d
	}
	d.Decided, d.Entry = true, entry

	declared := analysis.EffectiveKind(&d.Site)
	impl := entry.Decision.Impl
	if impl.Abstract() != declared.Abstract() {
		d.Status = StatusSkipCrossADT
		d.Reason = fmt.Sprintf("decision %v crosses the ADT boundary from %v", impl, declared)
		return d
	}
	// Residual Impl args on a site with no resolved Forced kind means
	// resolution and syntax disagree; do not touch it.
	if len(site.ImplArgs) > 0 {
		d.Status, d.Reason = StatusSkipOpaque, "Impl argument present but unresolved"
		return d
	}

	switch entry.Action {
	case rules.ActSetCapacity:
		if site.Capacity == entry.Decision.Capacity {
			d.Status = StatusSkipSized
			d.Reason = fmt.Sprintf("site already declares Cap(%d)", site.Capacity)
			return d
		}
		d.Status = StatusRetune
		d.Capacity = entry.Decision.Capacity
		d.Reason = fmt.Sprintf("set initial capacity to %d", d.Capacity)
		return d

	case rules.ActReplace:
		// The unboxed int array is element-type-specific in both
		// directions: a generic site cannot move onto it, and an
		// IntArray site stays pinned (its constructor already is the
		// decision).
		if (declared == spec.KindIntArray) != (impl == spec.KindIntArray) {
			d.Status = StatusSkipIntArray
			d.Reason = fmt.Sprintf("replacement %v and declared %v disagree on int specialization", impl, declared)
			return d
		}
		name, ok := collections.FixedConstructorName(impl)
		if !ok {
			d.Status = StatusSkipNoFixed
			d.Reason = fmt.Sprintf("no fixed constructor for %v", impl)
			return d
		}
		d.Status = StatusReplace
		d.Constructor = name
		d.Capacity = entry.Decision.Capacity // 0 keeps the site's Cap
		d.Reason = fmt.Sprintf("replace %s with %s", site.Constructor, name)
		if d.Capacity > 0 {
			d.Reason += fmt.Sprintf(" (initial capacity %d)", d.Capacity)
		}
		return d
	}

	d.Status, d.Reason = StatusSkipUndecided, "decision action is advisory only"
	return d
}

// unsafeReason summarizes why the safety analysis refuted the site, from
// its recorded findings.
func unsafeReason(site analysis.Site) string {
	for _, f := range site.Findings {
		if f.Severity >= analysis.SevWarning {
			return f.Code + ": " + f.Message
		}
	}
	return "refuted by safety analysis"
}
