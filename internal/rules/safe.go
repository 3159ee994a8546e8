package rules

import (
	"fmt"

	"chameleon/internal/faults"
)

// PanicError reports a panic recovered during rule evaluation. The guarded
// online path (internal/adaptive) treats it as a rule-set failure: the
// context degrades to its default decision instead of the panic unwinding
// through the allocating goroutine.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("rules: panic during rule evaluation: %v", e.Value)
}

// EvalSafe evaluates a rule set like Eval but contains panics: a panicking
// rule set (or an injected fault — see internal/faults) returns a
// *PanicError instead of unwinding the caller. This is the entry point the
// online selector uses; allocation paths must never be crashed by a bad
// rule set (docs/ROBUSTNESS.md).
func EvalSafe(rs *RuleSet, p Profile) (ms []Match, err error) {
	defer func() {
		if r := recover(); r != nil {
			ms, err = nil, &PanicError{Value: r}
		}
	}()
	if v, fire := faults.RuleEvalPanic(); fire {
		panic(v)
	}
	return Eval(rs, p)
}
