package rules

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"chameleon/internal/spec"
)

// This file is the semantic static-analysis pass over parsed rule sets:
// vet. Where check validates vocabulary (known operations and metrics,
// bound parameters, ADT-compatible replacements), vet proves semantic
// properties — a rule that can never fire, a rule that can never be the
// primary suggestion, a comparison over a counter that is identically
// zero — using the interval machinery in intervals.go. Every verdict is
// conservative: vet stays silent unless the defect is provable.

// Severity ranks a diagnostic. Errors mean the rule set cannot behave as
// written (a rule can never fire); warnings mean it almost certainly does
// not behave as intended.
type Severity int

const (
	// SevWarning flags a rule that is suspicious but still functional.
	SevWarning Severity = iota
	// SevError flags a rule that is provably inert as written.
	SevError
)

// String names the severity.
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "error":
		*s = SevError
	case "warning":
		*s = SevWarning
	default:
		return fmt.Errorf("unknown severity %q", name)
	}
	return nil
}

// Diagnostic codes; docs/ANALYSIS.md catalogues each with examples.
const (
	// CodeUnsatisfiable: the whole condition is provably false.
	CodeUnsatisfiable = "unsat"
	// CodeAlwaysTrue: a condition or comparison is provably true.
	CodeAlwaysTrue = "always-true"
	// CodeNeverTrue: one comparison is provably false (the whole
	// condition may still be satisfiable through a disjunction).
	CodeNeverTrue = "never-true"
	// CodeShadowed: an earlier rule matches strictly more contexts, so
	// this rule can never be the primary suggestion.
	CodeShadowed = "shadowed"
	// CodeVacuousOp: an operation counter outside the srcType's ADT
	// surface; the counter is identically zero.
	CodeVacuousOp = "vacuous-op"
	// CodeSelfReplace: a replacement whose target equals the source with
	// no capacity change.
	CodeSelfReplace = "self-replace"
	// CodeZeroDivisor: a division whose divisor is constantly zero (the
	// language defines x / 0 = 0).
	CodeZeroDivisor = "zero-div"
	// CodeStableUnread: stable(m) bounds a metric the rule never reads.
	CodeStableUnread = "stable-unread"
	// CodeStableConflict: the implicit stability gate on a size metric
	// contradicts an explicit stable(...) lower bound.
	CodeStableConflict = "stable-conflict"
)

// Diagnostic is one positioned, machine-renderable vet finding.
type Diagnostic struct {
	// Code identifies the lint (see the Code constants).
	Code string `json:"code"`
	// Severity is error or warning.
	Severity Severity `json:"severity"`
	// Pos locates the offending construct in the rule source.
	Pos Pos `json:"pos"`
	// Rule is the 1-based index of the rule in the set.
	Rule int `json:"rule"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
	// Related locates a second involved construct (the shadowing rule),
	// when there is one.
	Related *Pos `json:"related,omitempty"`
}

// String renders the diagnostic in the CLI's text form:
// "line:col: severity [code] rule N: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s] rule %d: %s", d.Pos, d.Severity, d.Code, d.Rule, d.Message)
}

// vet statically analyzes a rule set under the given parameter
// environment and reports every provable semantic defect. It assumes
// nothing check verifies — unknown names simply widen the analysis — so it
// is safe on any parser-accepted input, but its verdicts are sharpest on
// a vocabulary-clean set. Diagnostics come back ordered by source
// position.
func vet(rs *RuleSet, params Params) []Diagnostic {
	if rs == nil {
		return nil
	}
	if params == nil {
		params = Params{}
	}
	v := &vetter{params: params, unsat: make([]bool, len(rs.Rules))}
	for i, r := range rs.Rules {
		v.vetCondition(i, r)
		v.vetOps(i, r)
		v.vetAction(i, r)
		v.vetStability(i, r)
	}
	v.vetShadowing(rs)
	sort.SliceStable(v.diags, func(i, j int) bool {
		a, b := v.diags[i], v.diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Code < b.Code
	})
	return v.diags
}

type vetter struct {
	params Params
	diags  []Diagnostic
	// unsat marks the rules vetCondition proved unsatisfiable; shadowing
	// claims about them would be vacuous.
	unsat []bool
}

func (v *vetter) add(sev Severity, code string, pos Pos, rule int, format string, args ...any) *Diagnostic {
	v.diags = append(v.diags, Diagnostic{
		Code:     code,
		Severity: sev,
		Pos:      pos,
		Rule:     rule + 1,
		Message:  fmt.Sprintf(format, args...),
	})
	return &v.diags[len(v.diags)-1]
}

// vetCondition runs the interval/abstract analysis: unsatisfiable whole
// conditions (error), tautological conditions, and constant comparisons.
func (v *vetter) vetCondition(i int, r *Rule) {
	if r.Cond == nil {
		return
	}
	an := analyzeCond(r.Cond, v.params)
	v.unsat[i] = an.known && !an.satisfiable()
	if v.unsat[i] {
		v.add(SevError, CodeUnsatisfiable, r.Cond.Pos(), i,
			"condition %q can never be true: the rule never fires", printCond(r.Cond, false))
	} else if condAlwaysTrue(r.Cond, v.params) {
		v.add(SevWarning, CodeAlwaysTrue, r.Cond.Pos(), i,
			"condition %q is always true: the rule fires for every matching context", printCond(r.Cond, false))
	}
	walkCond(r.Cond, func(c Cond) {
		cmp, ok := c.(*Comparison)
		if !ok || Cond(cmp) == r.Cond {
			return // a single-comparison condition was covered above
		}
		li := exprInterval(cmp.L, v.params)
		ri := exprInterval(cmp.R, v.params)
		switch compareIvals(cmp.Op, li, ri) {
		case triAlways:
			v.add(SevWarning, CodeAlwaysTrue, cmp.At, i,
				"comparison %q is always true", printCond(cmp, false))
		case triNever:
			v.add(SevWarning, CodeNeverTrue, cmp.At, i,
				"comparison %q can never be true", printCond(cmp, false))
		}
	})
}

// vetOps flags operation counters outside the srcType's ADT surface: the
// profiler can never record them there, so the counter is identically
// zero and the comparison tests a constant.
func (v *vetter) vetOps(i int, r *Rule) {
	walkExprs(r.Cond, func(e Expr) {
		var name string
		var sigil string
		switch e := e.(type) {
		case *OpCount:
			name, sigil = e.Name, "#"
		case *OpVar:
			name, sigil = e.Name, "@"
		default:
			return
		}
		if name == "allOps" {
			return
		}
		op, ok := spec.OpByName(name)
		if !ok {
			return // check's territory
		}
		if !spec.OpApplies(op, r.Src) {
			v.add(SevWarning, CodeVacuousOp, e.Pos(), i,
				"%s%s is always zero for srcType %v (%s is not a %v operation)",
				sigil, name, r.Src, name, r.Src.Abstract())
		}
	})
}

// vetAction flags self-replacements and constant-zero divisors.
func (v *vetter) vetAction(i int, r *Rule) {
	if r.Act.Kind == ActReplace && r.Act.Impl == r.Src && !r.Act.Capacity.Present {
		v.add(SevWarning, CodeSelfReplace, r.Act.At, i,
			"replacing %v with itself changes nothing (add a capacity argument or delete the rule)", r.Src)
	}
	walkExprs(r.Cond, func(e Expr) {
		b, ok := e.(*BinaryExpr)
		if !ok || b.Op != "/" {
			return
		}
		if d := exprInterval(b.R, v.params); d.isPoint() && d.lo == 0 {
			v.add(SevWarning, CodeZeroDivisor, b.At, i,
				"division by constant zero: the language defines x / 0 = 0, so %q is always 0",
				printExpr(b, false))
		}
	})
}

// vetStability flags stable(m) on metrics the rule never reads, and rules
// whose implicit stability gate (Definition 3.1: size metrics must have a
// standard deviation at most the evaluator's threshold) contradicts an
// explicit stable(...) lower bound. size and maxSize share one tracked
// deviation, so a rule that implicitly gates one while requiring the
// other's stable() above the threshold can never fire.
func (v *vetter) vetStability(i int, r *Rule) {
	reads := map[string]bool{}
	stablePos := map[string]Pos{}
	walkExprs(r.Cond, func(e Expr) {
		switch e := e.(type) {
		case *MetricRef:
			reads[e.Name] = true
		case *StableRef:
			if _, seen := stablePos[e.Name]; !seen {
				stablePos[e.Name] = e.At
			}
		}
	})
	for name, pos := range stablePos {
		if !reads[name] {
			v.add(SevWarning, CodeStableUnread, pos, i,
				"stable(%s) bounds a metric the rule never reads", name)
		}
	}

	gated := ""
	for _, m := range []string{"size", "maxSize"} {
		if slices.Contains(r.facts().gated, m) {
			gated = m
			break
		}
	}
	if gated == "" {
		return
	}
	an := analyzeCond(r.Cond, v.params)
	if !an.known || !an.satisfiable() {
		return
	}
	thr := MaxSizeStdDev
	for _, s := range []string{"size", "maxSize"} {
		pos, hasStable := stablePos[s]
		if !hasStable {
			continue
		}
		contradictedAll := true
		for _, cj := range an.conjuncts {
			if cj.unsat {
				continue
			}
			b, ok := cj.env["stable("+s+")"]
			if !ok || !(b.lo > thr || (b.lo == thr && b.loOpen)) {
				contradictedAll = false
				break
			}
		}
		if contradictedAll {
			v.add(SevError, CodeStableConflict, pos, i,
				"condition requires stable(%s) > %v, but reading %s without stable(%s) imposes the implicit gate stable(%s) <= %v — size metrics share one deviation, so the rule never fires",
				s, thr, gated, gated, gated, thr)
		}
	}
}

// vetShadowing detects dead rules under the first-match-per-context
// priority semantics: if an earlier rule's srcType subsumes a later
// rule's and the later condition provably implies the earlier one (with a
// compatible stability gate), the later rule can never be the primary
// suggestion. A rule proven unsatisfiable is skipped: it matches no
// context, so calling it shadowed would be vacuously true, and its unsat
// error already says it never fires.
func (v *vetter) vetShadowing(rs *RuleSet) {
	for j := 1; j < len(rs.Rules); j++ {
		rj := rs.Rules[j]
		if rj.Cond == nil || v.unsat[j] {
			continue
		}
		for i := 0; i < j; i++ {
			ri := rs.Rules[i]
			if ri.Cond == nil || !srcSubsumes(ri.Src, rj.Src) {
				continue
			}
			if !subsetOf(ri.facts().gated, rj.facts().gated) {
				continue // rule i's stability gate could block where j fires
			}
			if !condImplies(rj.Cond, ri.Cond, v.params) {
				continue
			}
			d := v.add(SevWarning, CodeShadowed, rj.At, j,
				"rule is shadowed by rule %d (line %d): every context it matches already matches rule %d first, so it can never be the primary suggestion",
				i+1, ri.At.Line, i+1)
			related := ri.At
			d.Related = &related
			break
		}
	}
}

// subsetOf reports whether every metric of a is in b.
func subsetOf(a, b []string) bool {
	for _, m := range a {
		if !slices.Contains(b, m) {
			return false
		}
	}
	return true
}

// srcSubsumes reports whether every kind matching pattern b also matches
// pattern a — i.e. a rule with srcType a matches a superset of the
// contexts a rule with srcType b matches.
func srcSubsumes(a, b spec.Kind) bool {
	if a == b {
		return true
	}
	for _, k := range spec.Kinds() {
		if k.Matches(b) && !k.Matches(a) {
			return false
		}
	}
	return true
}
