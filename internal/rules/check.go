package rules

import (
	"sort"

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
	walkCond(r.Cond, func(c Cond) {
		if cmp, ok := c.(*Comparison); ok {
			walkExpr(cmp.L, func(e Expr) { errs = append(errs, checkExpr(e, params)...) })
			walkExpr(cmp.R, func(e Expr) { errs = append(errs, checkExpr(e, params)...) })
		}
	})
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

// ParamsOf reports the sorted set of parameter names referenced by a rule
// set (useful for validating an environment before evaluation).
func ParamsOf(rs *RuleSet) []string {
	seen := map[string]bool{}
	for _, r := range rs.Rules {
		walkCond(r.Cond, func(c Cond) {
			if cmp, ok := c.(*Comparison); ok {
				for _, side := range []Expr{cmp.L, cmp.R} {
					walkExpr(side, func(e Expr) {
						if p, ok := e.(*ParamRef); ok {
							seen[p.Name] = true
						}
					})
				}
			}
		})
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ExplicitStables reports the set of metric names a rule checks stability
// for explicitly via stable(m); the evaluator exempts those metrics from
// the implicit stability gate (§3.3.1).
func ExplicitStables(r *Rule) map[string]bool {
	out := map[string]bool{}
	walkCond(r.Cond, func(c Cond) {
		if cmp, ok := c.(*Comparison); ok {
			for _, side := range []Expr{cmp.L, cmp.R} {
				walkExpr(side, func(e Expr) {
					if s, ok := e.(*StableRef); ok {
						out[s.Name] = true
					}
				})
			}
		}
	})
	return out
}

// MetricsOf reports the sorted set of metric names referenced by a rule
// (used by the evaluator's stability gating).
func MetricsOf(r *Rule) []string {
	seen := map[string]bool{}
	walkCond(r.Cond, func(c Cond) {
		if cmp, ok := c.(*Comparison); ok {
			for _, side := range []Expr{cmp.L, cmp.R} {
				walkExpr(side, func(e Expr) {
					if m, ok := e.(*MetricRef); ok {
						seen[m.Name] = true
					}
				})
			}
		}
	})
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
