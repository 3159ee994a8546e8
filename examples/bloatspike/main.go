// Bloatspike example: reproduces the paper's Fig. 8 finding on bloat — a
// mid-run spike where a large share of the heap is LinkedList$Entry
// objects heading *empty* lists — and shows the collection-aware GC output
// that reveals it, the rule that catches it, and the lazy-allocation fix.
//
// Run with: go run ./examples/bloatspike [-scale N]
package main

import (
	"flag"
	"fmt"

	"chameleon/internal/advisor"
	"chameleon/internal/core"
	"chameleon/internal/experiments"
	"chameleon/internal/workloads"
)

func main() {
	scale := flag.Int("scale", 400, "methods to compile")
	flag.Parse()

	spec, err := workloads.ByName("bloat")
	if err != nil {
		panic(err)
	}

	s := core.NewSession(core.Config{GCThreshold: 48 << 10, KeepSnapshots: true})
	checksum := spec.Run(s.Runtime(), workloads.Baseline, *scale)
	s.FinalGC()

	fmt.Println("collections as % of live data per GC cycle — note the spike (Fig. 8):")
	series := s.PotentialSeries()
	fmt.Print(experiments.FormatSeries(series, len(series)/32+1))

	rep, err := s.Report(advisor.Options{Top: 3})
	if err != nil {
		panic(err)
	}
	fmt.Println("\nthe rule engine identifies the empty lists:")
	fmt.Print(rep.Format())

	s2 := core.NewSession(core.Config{GCThreshold: 48 << 10})
	checksum2 := spec.Run(s2.Runtime(), workloads.Tuned, *scale)
	s2.FinalGC()
	if checksum != checksum2 {
		panic("tuned variant changed the result")
	}
	base, tuned := s.Heap.MinimalHeap(), s2.Heap.MinimalHeap()
	fmt.Printf("\nminimal heap: %d -> %d bytes after lazy allocation (%.1f%% reduction; paper: 56%%)\n",
		base, tuned, 100*float64(base-tuned)/float64(base))
}
