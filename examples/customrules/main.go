// Customrules example: the Fig. 4 rule language as a user-facing feature.
// It writes a small custom rule set in the DSL, checks it statically,
// prints it back through the pretty-printer, and applies it to a profiled
// run — "a flexible rule engine that allows the programmer to write
// implementation selection rules ... using a simple, but expressive
// implementation selection language" (paper §1.1).
//
// Run with: go run ./examples/customrules
package main

import (
	"fmt"
	"os"

	"chameleon/internal/advisor"
	"chameleon/internal/collections"
	"chameleon/internal/core"
	"chameleon/internal/rules"
)

// The custom rule set: a stricter small-map rule plus a rule built from an
// operation *ratio*, something the built-in set does not use.
const customRules = `
// Replace read-mostly small maps: at least 90% of operations are gets.
HashMap : maxSize < SMALL && #get(Object) / #allOps > 0.9 -> ArrayMap(maxSize)
    "Space: read-mostly small map - use ArrayMap"

// Lists that are iterated but never searched should stay arrays but be
// exactly sized.
List : #iterator > 0 && #contains == 0 && maxSize > initialCapacity -> setCapacity(maxSize)
    "Space/Time: iterate-only list - size it exactly"
`

func main() {
	parsed, err := rules.Parse(customRules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parse error:", err)
		os.Exit(1)
	}
	rs, err := rules.Bind(parsed, rules.Params{"SMALL": 12})
	if err != nil {
		fmt.Fprintln(os.Stderr, "check error:", err)
		os.Exit(1)
	}
	fmt.Println("custom rules (pretty-printed from the AST):")
	fmt.Print(rules.Print(rs))
	fmt.Printf("parameters used: %v\n\n", rules.ParamsOf(rs))

	// Profile a run that triggers both rules.
	session := core.NewSession(core.Config{GCThreshold: 32 << 10})
	rt := session.Runtime()

	for i := 0; i < 100; i++ {
		m := collections.NewHashMap[int, int](rt, collections.At("cache.Lookup:7;svc.Handle:91"))
		for k := 0; k < 4; k++ {
			m.Put(k, k*i)
		}
		for r := 0; r < 200; r++ {
			m.Get(r % 4)
		}
		m.Free()
	}
	for i := 0; i < 50; i++ {
		l := collections.NewArrayList[int](rt, collections.At("report.Rows:3;report.Emit:55"))
		for k := 0; k < 40; k++ {
			l.Add(k)
		}
		it := l.Iterator()
		for it.HasNext() {
			_ = it.Next()
		}
		l.Free()
	}
	session.FinalGC()

	// MinPotential -1: report even contexts whose *live* potential is
	// negligible — the short-lived cache maps die instantly, so their win
	// is allocation churn rather than peak heap.
	rep, err := session.Report(advisor.Options{Rules: rs, MinPotential: -1})
	if err != nil {
		panic(err)
	}
	fmt.Println("suggestions from the custom rule set:")
	fmt.Print(rep.Format())
}
