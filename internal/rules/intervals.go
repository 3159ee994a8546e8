package rules

import "math"

// This file is the abstract-interpretation substrate of the vet pass: an
// interval domain over the extended reals, abstract evaluation of rule
// expressions under the known base domains (operation counts are >= 0,
// emptyFraction is in [0,1], parameters are substituted from the
// environment), a three-valued comparison over intervals, and a bounded
// DNF expansion with per-expression bound refinement that decides
// satisfiability and tautology of whole conditions. Everything is
// conservative: "always"/"never" verdicts are only produced when provable,
// and every over-approximation widens toward "maybe".

// ival is an interval over the extended reals. Endpoints produced by
// interval arithmetic are always treated as closed (a sound
// over-approximation); the open flags are set only by comparison-derived
// refinement constraints, where strictness decides emptiness (e.g.
// maxSize < 2 && maxSize >= 2 must come out empty).
type ival struct {
	lo, hi         float64
	loOpen, hiOpen bool
}

func point(v float64) ival   { return ival{lo: v, hi: v} }
func nonneg() ival           { return ival{lo: 0, hi: math.Inf(1)} }
func fullIval() ival         { return ival{lo: math.Inf(-1), hi: math.Inf(1)} }
func unitIval() ival         { return ival{lo: 0, hi: 1} }
func (a ival) isPoint() bool { return a.lo == a.hi && !a.loOpen && !a.hiOpen && !math.IsInf(a.lo, 0) }

func (a ival) empty() bool {
	if math.IsNaN(a.lo) || math.IsNaN(a.hi) {
		return false // NaN endpoints mean "unknown": never claim empty
	}
	if a.lo > a.hi {
		return true
	}
	return a.lo == a.hi && (a.loOpen || a.hiOpen)
}

// intersect narrows a by b, keeping the strictest endpoint flags.
func (a ival) intersect(b ival) ival {
	out := a
	if b.lo > out.lo || (b.lo == out.lo && b.loOpen) {
		out.lo, out.loOpen = b.lo, b.loOpen
	}
	if b.hi < out.hi || (b.hi == out.hi && b.hiOpen) {
		out.hi, out.hiOpen = b.hi, b.hiOpen
	}
	return out
}

// subset reports whether a is contained in b (openness-aware).
func (a ival) subset(b ival) bool {
	if a.empty() {
		return true
	}
	loOK := a.lo > b.lo || (a.lo == b.lo && (a.loOpen || !b.loOpen))
	hiOK := a.hi < b.hi || (a.hi == b.hi && (a.hiOpen || !b.hiOpen))
	return loOK && hiOK
}

// hull is the smallest closed interval containing every candidate; any NaN
// candidate (an indeterminate endpoint product like 0*inf) widens to the
// full line.
func hull(cands ...float64) ival {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range cands {
		if math.IsNaN(c) {
			return fullIval()
		}
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	return ival{lo: lo, hi: hi}
}

func (a ival) add(b ival) ival { return ival{lo: a.lo + b.lo, hi: a.hi + b.hi} }
func (a ival) sub(b ival) ival { return ival{lo: a.lo - b.hi, hi: a.hi - b.lo} }

func (a ival) mul(b ival) ival {
	return hull(a.lo*b.lo, a.lo*b.hi, a.hi*b.lo, a.hi*b.hi)
}

// div applies the rule language's guarded division (x/0 = 0, like
// stats.Ratio). A divisor that is exactly zero yields exactly zero; a
// divisor interval touching zero widens conservatively.
func (a ival) div(b ival) ival {
	if b.isPoint() && b.lo == 0 {
		return point(0)
	}
	if b.lo > 0 || b.hi < 0 { // divisor bounded away from zero
		return hull(a.lo/b.lo, a.lo/b.hi, a.hi/b.lo, a.hi/b.hi)
	}
	// Divisor may be zero or spans signs. The common rule-language shape
	// is a nonnegative ratio of counts: quotients stay nonnegative and the
	// guarded zero is already included.
	if a.lo >= 0 && b.lo >= 0 {
		return nonneg()
	}
	return fullIval()
}

// metricInterval is the base domain of a tracedata/heapdata metric: every
// shipped metric is a count, size or byte total and hence nonnegative;
// emptyFraction is a fraction. Unknown names (possible before check has
// passed) get the full line.
func metricInterval(name string) ival {
	switch {
	case name == "emptyFraction":
		return unitIval()
	case isMetricName(name):
		return nonneg()
	default:
		return fullIval()
	}
}

// exprInterval abstractly evaluates an expression to an interval, with
// parameters substituted from the environment. Unbound parameters (flagged
// separately by check) get the full line so no verdict depends on them.
func exprInterval(e Expr, params Params) ival {
	switch e := e.(type) {
	case *NumberLit:
		return point(e.Value)
	case *OpCount, *OpVar:
		return nonneg() // counts and their deviations are nonnegative
	case *MetricRef:
		return metricInterval(e.Name)
	case *ParamRef:
		if v, ok := params[e.Name]; ok {
			return point(v)
		}
		return fullIval()
	case *StableRef:
		return nonneg() // a standard deviation
	case *BinaryExpr:
		l := exprInterval(e.L, params)
		r := exprInterval(e.R, params)
		switch e.Op {
		case "+":
			return l.add(r)
		case "-":
			return l.sub(r)
		case "*":
			return l.mul(r)
		case "/":
			return l.div(r)
		}
	}
	return fullIval()
}

// tri is a three-valued truth verdict.
type tri int

const (
	triMaybe tri = iota
	triAlways
	triNever
)

// compareIvals decides a comparison between two (closed) intervals.
// Verdicts use the exact relational semantics; the evaluator's epsilon
// tolerance only blurs comparisons within 1e-9, far below any threshold a
// rule would write, so the verdicts remain trustworthy in practice.
func compareIvals(op string, a, b ival) tri {
	switch op {
	case "<":
		if a.hi < b.lo {
			return triAlways
		}
		if a.lo >= b.hi {
			return triNever
		}
	case "<=":
		if a.hi <= b.lo {
			return triAlways
		}
		if a.lo > b.hi {
			return triNever
		}
	case ">":
		return compareIvals("<", b, a)
	case ">=":
		return compareIvals("<=", b, a)
	case "==":
		if a.isPoint() && b.isPoint() && a.lo == b.lo {
			return triAlways
		}
		if a.hi < b.lo || b.hi < a.lo {
			return triNever
		}
	case "!=":
		switch compareIvals("==", a, b) {
		case triAlways:
			return triNever
		case triNever:
			return triAlways
		}
	}
	return triMaybe
}

// negComparisonOp gives the operator of the negated comparison.
func negComparisonOp(op string) string {
	switch op {
	case "==":
		return "!="
	case "!=":
		return "=="
	case "<":
		return ">="
	case "<=":
		return ">"
	case ">":
		return "<="
	case ">=":
		return "<"
	}
	return op
}

// flipComparisonOp mirrors the operator for a swapped operand order
// (a op b  <=>  b flip(op) a).
func flipComparisonOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // ==, != are symmetric
}

// lit is one literal of a DNF conjunct: a comparison, possibly negated.
type lit struct {
	cmp *Comparison
	neg bool
}

func (l lit) op() string {
	if l.neg {
		return negComparisonOp(l.cmp.Op)
	}
	return l.cmp.Op
}

// maxConjuncts bounds the DNF expansion; conditions past the bound get no
// satisfiability verdict (conservatively "maybe"). Hand-written rules are
// tiny; only fuzzers reach this.
const maxConjuncts = 64

// dnfCond expands a condition into disjunctive normal form with negation
// pushed to the leaves. It returns nil (unknown) when the expansion would
// exceed maxConjuncts.
func dnfCond(c Cond, neg bool) [][]lit {
	switch c := c.(type) {
	case *Comparison:
		return [][]lit{{lit{cmp: c, neg: neg}}}
	case *NotCond:
		return dnfCond(c.C, !neg)
	case *AndCond, *OrCond:
		var l, r Cond
		conj := false // combine children conjunctively?
		switch c := c.(type) {
		case *AndCond:
			l, r, conj = c.L, c.R, !neg
		case *OrCond:
			l, r, conj = c.L, c.R, neg
		}
		dl := dnfCond(l, neg)
		dr := dnfCond(r, neg)
		if dl == nil || dr == nil {
			return nil
		}
		if !conj {
			out := append(append([][]lit{}, dl...), dr...)
			if len(out) > maxConjuncts {
				return nil
			}
			return out
		}
		if len(dl)*len(dr) > maxConjuncts {
			return nil
		}
		out := make([][]lit, 0, len(dl)*len(dr))
		for _, a := range dl {
			for _, b := range dr {
				cj := make([]lit, 0, len(a)+len(b))
				cj = append(cj, a...)
				cj = append(cj, b...)
				out = append(out, cj)
			}
		}
		return out
	}
	return nil
}

// constraintIval is the set of values an expression may take for the
// comparison "expr op c" to hold.
func constraintIval(op string, c float64) (ival, bool) {
	inf := math.Inf(1)
	switch op {
	case "<":
		return ival{lo: -inf, hi: c, hiOpen: true}, true
	case "<=":
		return ival{lo: -inf, hi: c}, true
	case ">":
		return ival{lo: c, hi: inf, loOpen: true}, true
	case ">=":
		return ival{lo: c, hi: inf}, true
	case "==":
		return point(c), true
	}
	return ival{}, false // != is not an interval
}

// conjunct is one analyzed DNF conjunct: whether it is provably
// unsatisfiable, and the refined per-expression bounds (keyed by the
// expression's printed form) derived from its var-versus-constant
// comparisons.
type conjunct struct {
	unsat bool
	env   map[string]ival
}

// analyzeConjunct refines bounds across the literals of one conjunct.
// Comparisons between an arbitrary expression and a point constant narrow
// the expression's interval (intersected across literals, so
// "maxSize < 2 && maxSize > Y" with Y = 32 comes out empty); everything
// else is checked pointwise against the base intervals.
func analyzeConjunct(lits []lit, params Params) conjunct {
	cj := conjunct{env: map[string]ival{}}
	refine := func(e Expr, op string, c float64) {
		constr, ok := constraintIval(op, c)
		key := printExpr(e, false)
		cur, have := cj.env[key]
		if !have {
			cur = exprInterval(e, params)
		}
		if ok {
			cur = cur.intersect(constr)
		} else if op == "!=" && cur.isPoint() && cur.lo == c {
			cj.unsat = true
		}
		cj.env[key] = cur
		if cur.empty() {
			cj.unsat = true
		}
	}
	for _, l := range lits {
		op := l.op()
		li := exprInterval(l.cmp.L, params)
		ri := exprInterval(l.cmp.R, params)
		switch {
		case li.isPoint() && ri.isPoint():
			if compareIvals(op, li, ri) == triNever {
				cj.unsat = true
			}
		case ri.isPoint():
			refine(l.cmp.L, op, ri.lo)
		case li.isPoint():
			refine(l.cmp.R, flipComparisonOp(op), li.lo)
		default:
			if compareIvals(op, li, ri) == triNever {
				cj.unsat = true
			}
		}
	}
	return cj
}

// condAnalysis is the satisfiability view of one condition.
type condAnalysis struct {
	known     bool // false when the DNF expansion was cut off
	conjuncts []conjunct
}

func analyzeCond(c Cond, params Params) condAnalysis {
	d := dnfCond(c, false)
	if d == nil {
		return condAnalysis{}
	}
	out := condAnalysis{known: true, conjuncts: make([]conjunct, 0, len(d))}
	for _, lits := range d {
		out.conjuncts = append(out.conjuncts, analyzeConjunct(lits, params))
	}
	return out
}

// satisfiable reports whether some conjunct survived refinement; when the
// analysis was cut off it errs toward true.
func (a condAnalysis) satisfiable() bool {
	if !a.known {
		return true
	}
	for _, cj := range a.conjuncts {
		if !cj.unsat {
			return true
		}
	}
	return false
}

// condAlwaysTrue reports whether the condition is provably a tautology:
// its negation is unsatisfiable.
func condAlwaysTrue(c Cond, params Params) bool {
	d := dnfCond(c, true)
	if d == nil {
		return false
	}
	for _, lits := range d {
		if !analyzeConjunct(lits, params).unsat {
			return false
		}
	}
	return true
}

// normalizeComparison reduces a comparison to "key-expression within
// interval" when one side is a point constant: the allowed interval is the
// comparison constraint intersected with the expression's base domain.
func normalizeComparison(cmp *Comparison, op string, params Params) (key string, allowed ival, ok bool) {
	li := exprInterval(cmp.L, params)
	ri := exprInterval(cmp.R, params)
	var e Expr
	var c float64
	switch {
	case ri.isPoint() && !li.isPoint():
		e, c = cmp.L, ri.lo
	case li.isPoint() && !ri.isPoint():
		e, c, op = cmp.R, li.lo, flipComparisonOp(op)
	default:
		return "", ival{}, false
	}
	constr, ok := constraintIval(op, c)
	if !ok {
		return "", ival{}, false
	}
	return printExpr(e, false), exprInterval(e, params).intersect(constr), true
}

// comparisonImplies conservatively decides cmp-a => cmp-b: syntactic
// equality, a provably-false antecedent, a provably-true consequent, or
// bound entailment between two comparisons normalized to the same
// expression.
func comparisonImplies(a, b *Comparison, params Params) bool {
	if printCond(a, false) == printCond(b, false) {
		return true
	}
	if compareIvals(a.Op, exprInterval(a.L, params), exprInterval(a.R, params)) == triNever {
		return true
	}
	if compareIvals(b.Op, exprInterval(b.L, params), exprInterval(b.R, params)) == triAlways {
		return true
	}
	ka, ia, oka := normalizeComparison(a, a.Op, params)
	kb, ib, okb := normalizeComparison(b, b.Op, params)
	return oka && okb && ka == kb && ia.subset(ib)
}

// condImplies conservatively decides a => b over full conditions. False
// means "not provable", never "provably not".
func condImplies(a, b Cond, params Params) bool {
	// A provably-false antecedent or provably-true consequent implies
	// anything / is implied by anything.
	if condAlwaysTrue(b, params) {
		return true
	}
	if !analyzeCond(a, params).satisfiable() {
		return true
	}
	switch b := b.(type) {
	case *AndCond:
		return condImplies(a, b.L, params) && condImplies(a, b.R, params)
	case *OrCond:
		if condImplies(a, b.L, params) || condImplies(a, b.R, params) {
			return true
		}
	}
	switch a := a.(type) {
	case *OrCond:
		return condImplies(a.L, b, params) && condImplies(a.R, b, params)
	case *AndCond:
		if condImplies(a.L, b, params) || condImplies(a.R, b, params) {
			return true
		}
	}
	ca, okA := a.(*Comparison)
	cb, okB := b.(*Comparison)
	if okA && okB {
		return comparisonImplies(ca, cb, params)
	}
	if okB {
		// a is a conjunction whose single literals were already tried; a
		// disjunction or negation has no further conservative handle.
		return false
	}
	return printCond(a, false) == printCond(b, false)
}
