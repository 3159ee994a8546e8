package rules

import (
	"fmt"
	"strings"
)

// Explanation is a trace of one rule evaluated against one profile: which
// gate stopped it, or which comparisons made it fire, with every operand's
// concrete value. It answers the tool-user's question "why (wasn't) my
// context replaced?".
type Explanation struct {
	Rule *Rule
	// Fired reports whether the rule matched.
	Fired bool
	// SrcMatched reports whether the srcType pattern matched the
	// context's declared kind.
	SrcMatched bool
	// StabilityBlocked lists metrics whose implicit stability gate
	// (Definition 3.1) stopped the rule before its condition ran.
	StabilityBlocked []string
	// Steps are the comparisons evaluated, in evaluation order
	// (short-circuited comparisons are absent).
	Steps []Step
	// Capacity is the resolved capacity when the rule fired.
	Capacity int64
	// Err is set when evaluation failed (e.g. unbound parameter).
	Err error
}

// Step is one evaluated comparison.
type Step struct {
	// Text is the comparison in concrete syntax.
	Text string
	// Left and Right are the evaluated operand values.
	Left, Right float64
	// Result is the comparison's outcome.
	Result bool
}

// Explain evaluates a rule against a profile under params with
// EvalRule's evaluator, recording a step trace.
func Explain(r *Rule, p Profile, params Params) Explanation {
	ex := Explanation{Rule: r}
	m, fired, err := evalRule(r, p, params, &ex)
	ex.Fired, ex.Capacity, ex.Err = fired, m.Capacity, err
	return ex
}

// String renders the explanation.
func (ex Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rule: %s\n", PrintRule(ex.Rule))
	switch {
	case !ex.SrcMatched:
		fmt.Fprintf(&b, "  srcType %s does not match the context's declared kind\n", ex.Rule.Src)
		return b.String()
	case len(ex.StabilityBlocked) > 0:
		fmt.Fprintf(&b, "  blocked by the implicit stability gate on: %s\n",
			strings.Join(ex.StabilityBlocked, ", "))
		return b.String()
	case ex.Err != nil:
		fmt.Fprintf(&b, "  evaluation error: %v\n", ex.Err)
		return b.String()
	}
	for _, s := range ex.Steps {
		fmt.Fprintf(&b, "  %-45s %10.2f vs %-10.2f %v\n", s.Text, s.Left, s.Right, s.Result)
	}
	if ex.Fired {
		if ex.Capacity > 0 {
			fmt.Fprintf(&b, "  => fires (capacity %d)\n", ex.Capacity)
		} else {
			fmt.Fprintf(&b, "  => fires\n")
		}
	} else {
		fmt.Fprintf(&b, "  => does not fire\n")
	}
	return b.String()
}
