package rules

import (
	"maps"
	"slices"

	"chameleon/internal/spec"
)

// check statically validates a rule set against the operation and metric
// vocabularies and the given parameter environment: every #op/@op must name
// a known operation, every bare identifier must be a metric or a bound
// parameter, and replacement targets must be implementations compatible
// with the rule's source type. It returns every problem found.
func check(rs *RuleSet, params Params) []error {
	var errs []error
	seen := map[string]int{} // rule identity (src : cond -> action) to 1-based index
	for i, r := range rs.Rules {
		errs = append(errs, checkRule(r, params)...)
		key := ruleIdentity(r)
		if first, dup := seen[key]; dup {
			errs = append(errs, errf(r.At,
				"duplicate of rule %d (line %d): identical srcType, condition and action", first, rs.Rules[first-1].At.Line))
		} else {
			seen[key] = i + 1
		}
	}
	return errs
}

// ruleIdentity renders the semantically significant parts of a rule — the
// message string is presentation only — for duplicate detection.
func ruleIdentity(r *Rule) string {
	return r.Src.String() + " : " + printCond(r.Cond, false) + " -> " + printAction(r.Act)
}

func checkRule(r *Rule, params Params) []error {
	var errs []error
	walkExprs(r.Cond, func(e Expr) { errs = append(errs, checkExpr(e, params)...) })
	if r.Act.Kind == ActReplace {
		src := r.Src
		impl := r.Act.Impl
		// A replacement must stay within the source ADT unless the source
		// is a concrete kind whose suggested fix crosses ADTs (the paper's
		// ArrayList -> LinkedHashSet rule does; it is advice the
		// programmer applies by also changing the declared ADT). Crossing
		// is allowed from concrete sources, rejected from abstract ones
		// where it would be unactionable.
		if src.IsAbstract() && src != spec.KindCollection && impl.Abstract() != src {
			errs = append(errs, errf(r.Act.At,
				"replacement %v does not implement source ADT %v", impl, src))
		}
	}
	switch r.Act.Kind {
	case ActAvoid, ActEliminateCopies, ActRemoveIterator:
		// The advisory fixes carry no capacity. The parser cannot produce
		// this shape, but programmatically built rule sets can.
		if r.Act.Capacity.Present {
			errs = append(errs, errf(r.Act.At, "%v does not take a capacity argument", r.Act.Kind))
		}
	}
	if r.Act.Capacity.Present && !r.Act.Capacity.FromMaxSize && r.Act.Capacity.Value < 0 {
		errs = append(errs, errf(r.Act.At, "negative capacity %d", r.Act.Capacity.Value))
	}
	return errs
}

func checkExpr(e Expr, params Params) []error {
	switch e := e.(type) {
	case *OpCount:
		if e.Name == "allOps" {
			return nil
		}
		if _, ok := spec.OpByName(e.Name); !ok {
			return []error{errf(e.At, "unknown operation %q", e.Name)}
		}
	case *OpVar:
		if _, ok := spec.OpByName(e.Name); !ok {
			return []error{errf(e.At, "unknown operation %q", e.Name)}
		}
	case *ParamRef:
		if _, ok := params[e.Name]; !ok {
			return []error{errf(e.At, "unbound parameter %q (not a metric; bind it in the parameter environment)", e.Name)}
		}
	case *StableRef:
		if !isMetricName(e.Name) {
			return []error{errf(e.At, "stable() argument %q is not a metric", e.Name)}
		}
	}
	return nil
}

// walkCond visits every condition node.
func walkCond(c Cond, f func(Cond)) {
	f(c)
	switch c := c.(type) {
	case *AndCond:
		walkCond(c.L, f)
		walkCond(c.R, f)
	case *OrCond:
		walkCond(c.L, f)
		walkCond(c.R, f)
	case *NotCond:
		walkCond(c.C, f)
	}
}

// walkExpr visits every expression node.
func walkExpr(e Expr, f func(Expr)) {
	f(e)
	if b, ok := e.(*BinaryExpr); ok {
		walkExpr(b.L, f)
		walkExpr(b.R, f)
	}
}

// walkExprs visits every expression node of a condition's comparisons.
func walkExprs(c Cond, f func(Expr)) {
	walkCond(c, func(c Cond) {
		if cmp, ok := c.(*Comparison); ok {
			walkExpr(cmp.L, f)
			walkExpr(cmp.R, f)
		}
	})
}

// ParamsOf reports the sorted set of parameter names referenced by a rule
// set (useful for validating an environment before evaluation).
func ParamsOf(rs *RuleSet) []string {
	seen := map[string]bool{}
	for _, r := range rs.Rules {
		walkExprs(r.Cond, func(e Expr) {
			if p, ok := e.(*ParamRef); ok {
				seen[p.Name] = true
			}
		})
	}
	return slices.Sorted(maps.Keys(seen))
}

// ruleFacts are what a rule's condition implies beyond its comparisons.
// They are fixed per rule, so they are derived once (Rule.facts).
type ruleFacts struct {
	// gated are the metrics the implicit stability gate checks
	// (Definition 3.1): those the condition reads and does not check
	// with stable(m), sorted. A stable(m) check replaces the gate for m
	// with whatever the rule itself requires (§3.3.1).
	gated []string
	// readsHeap reports whether the condition reads a heap-derived
	// metric (metricNames).
	readsHeap bool
}

// facts reports the rule's derived facts, computing them on the first
// call and keeping them. A loaded set's rules get theirs at Bind, whose
// vet pass reads every rule's. The shipped sets share their rules across
// goroutines, so the facts are kept with an atomic store: racing first
// calls compute equal facts and all keep the first stored.
func (r *Rule) facts() *ruleFacts {
	if f := r.derived.Load(); f != nil {
		return f
	}
	reads, explicit := map[string]bool{}, map[string]bool{}
	walkExprs(r.Cond, func(e Expr) {
		switch e := e.(type) {
		case *MetricRef:
			reads[e.Name] = true
		case *StableRef:
			explicit[e.Name] = true
		}
	})
	f := &ruleFacts{}
	for m := range reads {
		if !explicit[m] {
			f.gated = append(f.gated, m)
		}
		f.readsHeap = f.readsHeap || metricNames[m]
	}
	slices.Sort(f.gated)
	r.derived.CompareAndSwap(nil, f)
	return r.derived.Load()
}

// ReadsHeap reports whether the rule's condition reads a heap-derived
// metric (maxLive, potential, gcCycles, ...). Online verification cannot
// re-check such a rule: its post-decision evidence windows carry trace
// statistics only, where a heap metric would read as zero.
func (r *Rule) ReadsHeap() bool { return r.facts().readsHeap }
