package rules

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a rule set in concrete syntax, one rule per line. The
// output re-parses to an equal AST (tested by the round-trip property
// tests).
func Print(rs *RuleSet) string {
	var b strings.Builder
	for _, r := range rs.Rules {
		b.WriteString(PrintRule(r))
		b.WriteByte('\n')
	}
	return b.String()
}

// PrintRule renders one rule.
func PrintRule(r *Rule) string {
	var b strings.Builder
	b.WriteString(r.Src.String())
	b.WriteString(" : ")
	b.WriteString(printCond(r.Cond, false))
	b.WriteString(" -> ")
	b.WriteString(printAction(r.Act))
	if r.Message != "" {
		b.WriteString(" ")
		b.WriteString(strconv.Quote(r.Message))
	}
	return b.String()
}

func printAction(a Action) string {
	switch a.Kind {
	case ActReplace:
		if a.Capacity.Present {
			return a.Impl.String() + "(" + printCap(a.Capacity) + ")"
		}
		return a.Impl.String()
	case ActSetCapacity:
		return "setCapacity(" + printCap(a.Capacity) + ")"
	case ActAvoid:
		return "avoid"
	case ActEliminateCopies:
		return "eliminateCopies"
	case ActRemoveIterator:
		return "removeIterator"
	}
	return fmt.Sprintf("<%v>", a.Kind)
}

func printCap(c CapSpec) string {
	if c.FromMaxSize {
		return "maxSize"
	}
	return strconv.FormatInt(c.Value, 10)
}

// printCond renders a condition; inner controls parenthesization of
// disjunctions nested under conjunctions.
func printCond(c Cond, inner bool) string {
	switch c := c.(type) {
	case *Comparison:
		return printExpr(c.L, false) + " " + c.Op + " " + printExpr(c.R, false)
	case *AndCond:
		s := printCondIn(c.L, true) + " && " + printCondIn(c.R, true)
		return s
	case *OrCond:
		s := printCondIn(c.L, false) + " || " + printCondIn(c.R, false)
		if inner {
			return "(" + s + ")"
		}
		return s
	case *NotCond:
		return "!(" + printCond(c.C, false) + ")"
	}
	return "<cond>"
}

// printCondIn renders a child of a boolean operator, parenthesizing an Or
// under an And to preserve precedence.
func printCondIn(c Cond, underAnd bool) string {
	if _, isOr := c.(*OrCond); isOr && underAnd {
		return "(" + printCond(c, false) + ")"
	}
	return printCond(c, underAnd)
}

func precedence(op string) int {
	switch op {
	case "*", "/":
		return 2
	default:
		return 1
	}
}

func printExpr(e Expr, parenthesize bool) string {
	var s string
	switch e := e.(type) {
	case *NumberLit:
		// 'f', not 'g': the lexer reads no exponent, so 1e+06 would not
		// parse back.
		s = strconv.FormatFloat(e.Value, 'f', -1, 64)
	case *OpCount:
		s = "#" + e.Name
	case *OpVar:
		s = "@" + e.Name
	case *MetricRef:
		s = e.Name
	case *ParamRef:
		s = e.Name
	case *StableRef:
		s = "stable(" + e.Name + ")"
	case *BinaryExpr:
		l := printExpr(e.L, childNeedsParens(e.L, e.Op, false))
		r := printExpr(e.R, childNeedsParens(e.R, e.Op, true))
		s = l + " " + e.Op + " " + r
		if parenthesize {
			s = "(" + s + ")"
		}
		return s
	default:
		s = "<expr>"
	}
	if parenthesize {
		return "(" + s + ")"
	}
	return s
}

// childNeedsParens reports whether a child expression must be
// parenthesized under a parent operator to preserve the tree: lower
// precedence always, equal precedence on the right of - and /.
func childNeedsParens(child Expr, parentOp string, isRight bool) bool {
	b, ok := child.(*BinaryExpr)
	if !ok {
		return false
	}
	pc, pp := precedence(b.Op), precedence(parentOp)
	if pc < pp {
		return true
	}
	if pc == pp && isRight && (parentOp == "-" || parentOp == "/") {
		return true
	}
	return false
}
