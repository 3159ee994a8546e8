package rules

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"chameleon/internal/spec"
)

// Expr is a numeric expression node.
type Expr interface {
	exprNode()
	// Pos reports the expression's source position.
	Pos() Pos
}

// NumberLit is a numeric literal.
type NumberLit struct {
	Value float64
	At    Pos
}

// OpCount references a per-instance average operation count: "#add",
// "#get(int)", "#allOps".
type OpCount struct {
	Name string
	At   Pos
}

// OpVar references a per-instance operation-count standard deviation:
// "@add".
type OpVar struct {
	Name string
	At   Pos
}

// MetricRef references a tracedata/heapdata metric by name (size, maxSize,
// initialCapacity, maxLive, ...).
type MetricRef struct {
	Name string
	At   Pos
}

// ParamRef references a named tuning parameter (the X, Y thresholds of the
// paper's rules), bound at evaluation time.
type ParamRef struct {
	Name string
	At   Pos
}

// StableRef is the explicit stability reference "stable(metric)": the
// standard deviation of a metric across the context's instances. The paper
// notes stability may be "specified explicitly in the rule" (§3.3.1);
// writing stable(m) anywhere in a rule's condition replaces the implicit
// stability gate for metric m with whatever the rule itself checks.
type StableRef struct {
	Name string
	At   Pos
}

// BinaryExpr is an arithmetic combination of two expressions.
type BinaryExpr struct {
	Op   string // "+", "-", "*", "/"
	L, R Expr
	At   Pos
}

func (*NumberLit) exprNode()  {}
func (*OpCount) exprNode()    {}
func (*OpVar) exprNode()      {}
func (*MetricRef) exprNode()  {}
func (*ParamRef) exprNode()   {}
func (*StableRef) exprNode()  {}
func (*BinaryExpr) exprNode() {}

// Pos implements Expr.
func (e *NumberLit) Pos() Pos { return e.At }

// Pos implements Expr.
func (e *OpCount) Pos() Pos { return e.At }

// Pos implements Expr.
func (e *OpVar) Pos() Pos { return e.At }

// Pos implements Expr.
func (e *MetricRef) Pos() Pos { return e.At }

// Pos implements Expr.
func (e *ParamRef) Pos() Pos { return e.At }

// Pos implements Expr.
func (e *StableRef) Pos() Pos { return e.At }

// Pos implements Expr.
func (e *BinaryExpr) Pos() Pos { return e.At }

// Cond is a boolean condition node.
type Cond interface {
	condNode()
	// Pos reports the condition's source position.
	Pos() Pos
}

// Comparison compares two expressions: ==, !=, <, <=, >, >=.
type Comparison struct {
	Op   string
	L, R Expr
	At   Pos
}

// AndCond is conjunction.
type AndCond struct {
	L, R Cond
	At   Pos
}

// OrCond is disjunction.
type OrCond struct {
	L, R Cond
	At   Pos
}

// NotCond is negation.
type NotCond struct {
	C  Cond
	At Pos
}

func (*Comparison) condNode() {}
func (*AndCond) condNode()    {}
func (*OrCond) condNode()     {}
func (*NotCond) condNode()    {}

// Pos implements Cond.
func (c *Comparison) Pos() Pos { return c.At }

// Pos implements Cond.
func (c *AndCond) Pos() Pos { return c.At }

// Pos implements Cond.
func (c *OrCond) Pos() Pos { return c.At }

// Pos implements Cond.
func (c *NotCond) Pos() Pos { return c.At }

// ActionKind distinguishes replacement actions from the advisory fixes of
// Table 2.
type ActionKind int

const (
	// ActReplace replaces the implementation with Action.Impl.
	ActReplace ActionKind = iota
	// ActSetCapacity keeps the implementation but tunes the initial
	// capacity ("incremental resizing -> set initial capacity").
	ActSetCapacity
	// ActAvoid advises removing the allocation entirely ("redundant
	// collection -> avoid allocation").
	ActAvoid
	// ActEliminateCopies advises eliminating temporary copies ("redundant
	// copying of collections -> eliminate temporaries").
	ActEliminateCopies
	// ActRemoveIterator advises removing iterators created over empty
	// collections ("redundant iterator -> remove").
	ActRemoveIterator
)

// String names the action kind in concrete syntax.
func (k ActionKind) String() string {
	switch k {
	case ActReplace:
		return "replace"
	case ActSetCapacity:
		return "setCapacity"
	case ActAvoid:
		return "avoid"
	case ActEliminateCopies:
		return "eliminateCopies"
	case ActRemoveIterator:
		return "removeIterator"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// CapSpec is an optional capacity argument: either a literal or the
// context's maxSize metric (Fig. 4: capacity := INT | maxSize).
type CapSpec struct {
	// Present reports whether a capacity was written.
	Present bool
	// FromMaxSize selects the context's average maximal size.
	FromMaxSize bool
	// Value is the literal capacity when FromMaxSize is false.
	Value int64
}

// Action is a rule's right-hand side.
type Action struct {
	Kind     ActionKind
	Impl     spec.Kind // for ActReplace
	Capacity CapSpec
	At       Pos
}

// Rule is one selection rule. Its condition must not change once the rule
// has been bound or evaluated: the facts derived from it are kept.
type Rule struct {
	// Src is the source-type pattern the context's declared kind must
	// match (an abstract ADT or a concrete kind).
	Src spec.Kind
	// Cond is the guard over the context's statistics.
	Cond Cond
	// Act is the suggested fix.
	Act Action
	// Message is the optional human-readable category/message string,
	// conventionally prefixed "Space:", "Time:" or "Space/Time:" as in
	// Table 2.
	Message string
	// At is the rule's source position.
	At Pos

	derived atomic.Pointer[ruleFacts] // see facts
}

// Category extracts the leading category of the message ("Space", "Time",
// "Space/Time"), or "" when absent.
func (r *Rule) Category() string {
	i := strings.IndexByte(r.Message, ':')
	if i < 0 {
		return ""
	}
	cat := strings.TrimSpace(r.Message[:i])
	switch cat {
	case "Space", "Time", "Space/Time":
		return cat
	}
	return ""
}

// RuleSet is an ordered list of rules; earlier rules take priority when
// several match the same context.
//
// A set from Parse alone is unbound. Bind, LoadFile, Choose, Builtin and
// Extended return bound sets: each carries the parameter environment it
// was checked under and vet's findings under that environment, computed
// once. Evaluation reads the parameters from the set. Bind again after
// changing Rules.
type RuleSet struct {
	Rules []*Rule

	params Params
	diags  []Diagnostic
}

// Params reports the parameter environment the set is bound to, nil when
// it is unbound. It must not be modified.
func (rs *RuleSet) Params() Params { return rs.params }

// Diagnostics reports vet's findings for the set under its parameters,
// ordered by source position; nil when it is unbound or vet-clean. The
// slice is clipped, so appending to it copies.
func (rs *RuleSet) Diagnostics() []Diagnostic { return slices.Clip(rs.diags) }
