package rules

import (
	"math"

	"chameleon/internal/spec"
)

// Profile is the evaluator's view of one allocation context's statistics.
// profiler.Profile implements it.
type Profile interface {
	// OpMeanByName resolves "#name" (per-instance average count).
	OpMeanByName(name string) (float64, bool)
	// OpStdDevByName resolves "@name" (per-instance count std deviation).
	OpStdDevByName(name string) (float64, bool)
	// Metric resolves a tracedata/heapdata name.
	Metric(name string) (float64, bool)
	// Stability reports the metric's standard deviation for stability
	// gating (0 when the metric carries no tracked variance).
	Stability(name string) float64
	// SrcKind reports the kind used for srcType matching.
	SrcKind() spec.Kind
}

// Params binds the named tuning constants of a rule set (the X, Y
// thresholds of Table 2 — "the constants used in the rules are not shown,
// as they may be tuned per specific environment"). A set is bound to one
// environment when it is loaded (Bind).
type Params map[string]float64

// MaxSizeStdDev is the stability threshold for size metrics
// (Definition 3.1): a rule whose condition reads size/maxSize only fires
// when the context's maximal-size standard deviation is at most this
// value. The paper requires "size values to be tight, while operation
// counts are not restricted" (§3.3.1). The vet analysis reasons with the same value.
const MaxSizeStdDev = 8.0

// Match is one rule that fired for a profile.
type Match struct {
	Rule *Rule
	// Capacity is the resolved capacity suggestion (0 when the rule
	// carries none).
	Capacity int64
}

// Actionable reports the first of ms that can be applied at allocation
// time to a site declaring declared: a replacement within declared's
// ADT, or capacity tuning with a positive capacity. Cross-ADT advice and
// the advisory fixes need program changes. The online selector and the
// advisor's plans both choose with it.
func Actionable(ms []Match, declared spec.Kind) (Match, bool) {
	for _, m := range ms {
		switch m.Rule.Act.Kind {
		case ActReplace:
			if m.Rule.Act.Impl.Abstract() == declared.Abstract() {
				return m, true
			}
		case ActSetCapacity:
			if m.Capacity > 0 {
				return m, true
			}
		}
	}
	return Match{}, false
}

// EvalRule evaluates one rule against a profile under params, the
// Params of the set the rule came from. It reports whether the rule
// fires, applying srcType matching and stability gating before the
// condition.
func EvalRule(r *Rule, p Profile, params Params) (Match, bool, error) {
	return evalRule(r, p, params, nil)
}

// evalRule is the one evaluator behind EvalRule and Explain. A non-nil ex
// records what Explain reports: the srcType match, every metric the
// stability gate blocks, and one Step per comparison evaluated.
func evalRule(r *Rule, p Profile, params Params, ex *Explanation) (Match, bool, error) {
	if !p.SrcKind().Matches(r.Src) {
		return Match{}, false, nil
	}
	if ex != nil {
		ex.SrcMatched = true
	}
	// Stability gating: every metric the condition reads must be stable
	// in this context, unless the rule checks that metric's stability
	// itself with stable(m) (§3.3.1).
	for _, m := range r.facts().gated {
		if p.Stability(m) <= MaxSizeStdDev {
			continue
		}
		if ex == nil {
			return Match{}, false, nil
		}
		ex.StabilityBlocked = append(ex.StabilityBlocked, m)
	}
	if ex != nil && len(ex.StabilityBlocked) > 0 {
		return Match{}, false, nil
	}
	ok, err := evalCond(r.Cond, p, params, ex)
	if err != nil || !ok {
		return Match{}, false, err
	}
	m := Match{Rule: r}
	if r.Act.Capacity.Present {
		if r.Act.Capacity.FromMaxSize {
			if v, found := p.Metric("maxSize"); found {
				m.Capacity = int64(math.Ceil(v))
			}
		} else {
			m.Capacity = r.Act.Capacity.Value
		}
	}
	return m, true, nil
}

// Eval evaluates a rule set in order against a profile, under the
// parameters it is bound to, and returns every match; earlier matches
// carry higher priority.
func Eval(rs *RuleSet, p Profile) ([]Match, error) {
	var out []Match
	for _, r := range rs.Rules {
		m, ok, err := EvalRule(r, p, rs.params)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, m)
		}
	}
	return out, nil
}

func evalCond(c Cond, p Profile, params Params, ex *Explanation) (bool, error) {
	switch c := c.(type) {
	case *Comparison:
		l, err := evalExpr(c.L, p, params)
		if err != nil {
			return false, err
		}
		r, err := evalExpr(c.R, p, params)
		if err != nil {
			return false, err
		}
		res, err := compare(c, l, r)
		if err == nil && ex != nil {
			ex.Steps = append(ex.Steps, Step{Text: printCond(c, false), Left: l, Right: r, Result: res})
		}
		return res, err
	case *AndCond:
		l, err := evalCond(c.L, p, params, ex)
		if err != nil || !l {
			return false, err
		}
		return evalCond(c.R, p, params, ex)
	case *OrCond:
		l, err := evalCond(c.L, p, params, ex)
		if err != nil || l {
			return l, err
		}
		return evalCond(c.R, p, params, ex)
	case *NotCond:
		v, err := evalCond(c.C, p, params, ex)
		return !v, err
	}
	return false, errf(c.Pos(), "unknown condition node")
}

// compare applies a comparison's operator to its evaluated operands.
func compare(c *Comparison, l, r float64) (bool, error) {
	const eps = 1e-9
	switch c.Op {
	case "==":
		return math.Abs(l-r) <= eps, nil
	case "!=":
		return math.Abs(l-r) > eps, nil
	case "<":
		return l < r, nil
	case "<=":
		return l <= r+eps, nil
	case ">":
		return l > r, nil
	case ">=":
		return l+eps >= r, nil
	}
	return false, errf(c.At, "unknown comparison operator %q", c.Op)
}

func evalExpr(e Expr, p Profile, params Params) (float64, error) {
	switch e := e.(type) {
	case *NumberLit:
		return e.Value, nil
	case *OpCount:
		v, ok := p.OpMeanByName(e.Name)
		if !ok {
			return 0, errf(e.At, "unknown operation %q", e.Name)
		}
		return v, nil
	case *OpVar:
		v, ok := p.OpStdDevByName(e.Name)
		if !ok {
			return 0, errf(e.At, "unknown operation %q", e.Name)
		}
		return v, nil
	case *MetricRef:
		v, ok := p.Metric(e.Name)
		if !ok {
			return 0, errf(e.At, "unknown metric %q", e.Name)
		}
		return v, nil
	case *ParamRef:
		v, ok := params[e.Name]
		if !ok {
			return 0, errf(e.At, "unbound parameter %q", e.Name)
		}
		return v, nil
	case *StableRef:
		return p.Stability(e.Name), nil
	case *BinaryExpr:
		l, err := evalExpr(e.L, p, params)
		if err != nil {
			return 0, err
		}
		r, err := evalExpr(e.R, p, params)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, nil // guarded ratio: x/0 is 0, like stats.Ratio
			}
			return l / r, nil
		}
		return 0, errf(e.At, "unknown operator %q", e.Op)
	}
	return 0, errf(e.Pos(), "unknown expression node")
}
