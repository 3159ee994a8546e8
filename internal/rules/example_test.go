package rules_test

import (
	"fmt"

	"chameleon/internal/rules"
)

// ExampleParse shows a rule in the Fig. 4 language being parsed and
// printed back.
func ExampleParse() {
	rs, err := rules.Parse(`
// the paper's §3.3.1 example rule
ArrayList : #contains > X && maxSize > Y -> LinkedHashSet
    "Time: inefficient use of an ArrayList"
`)
	if err != nil {
		panic(err)
	}
	fmt.Print(rules.Print(rs))
	// Output:
	// ArrayList : #contains > X && maxSize > Y -> LinkedHashSet "Time: inefficient use of an ArrayList"
}

// ExampleParamsOf reports which tuning parameters a rule set needs bound.
func ExampleParamsOf() {
	rs, _ := rules.Parse(`HashMap : maxSize < Z && #get(Object) > X -> ArrayMap(maxSize)`)
	fmt.Println(rules.ParamsOf(rs))
	// Output:
	// [X Z]
}

// ExampleBind binds a parsed rule set to a parameter environment; a set
// that fails the static checks is refused.
func ExampleBind() {
	rs, _ := rules.Parse(`HashMap : #frobnicate > 1 -> ArrayMap`)
	_, err := rules.Bind(rs, rules.DefaultParams)
	fmt.Println(err)
	// Output:
	// rules: 1:11: unknown operation "frobnicate"
}
