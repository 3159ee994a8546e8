// TVLA example: the paper's §2.1 walkthrough end to end.
//
// It (1) profiles the TVLA-style abstract-interpretation workload and
// prints the Fig. 2 potential series and the §2.1 suggestion report, then
// (2) applies the suggestions (the tuned variant) and re-runs, comparing
// minimal heap and wall-clock time — the paper's methodology (§5.2).
//
// Run with: go run ./examples/tvla [-scale N]
package main

import (
	"flag"
	"fmt"
	"time"

	"chameleon/internal/advisor"
	"chameleon/internal/core"
	"chameleon/internal/experiments"
	"chameleon/internal/workloads"
)

func main() {
	scale := flag.Int("scale", 300, "fixpoint steps")
	flag.Parse()

	spec, err := workloads.ByName("tvla")
	if err != nil {
		panic(err)
	}

	// Step 1: run under profiling; check the saving potential.
	s := core.NewSession(core.Config{GCThreshold: 64 << 10, KeepSnapshots: true})
	start := time.Now()
	checksum := spec.Run(s.Runtime(), workloads.Baseline, *scale)
	baseTime := time.Since(start)
	s.FinalGC()
	baseHeap := s.Heap.MinimalHeap()

	fmt.Println("collections as % of live data, per GC cycle (Fig. 2):")
	series := s.PotentialSeries()
	fmt.Print(experiments.FormatSeries(series, len(series)/24+1))

	rep, err := s.Report(advisor.Options{Top: 5})
	if err != nil {
		panic(err)
	}
	fmt.Println("\nChameleon suggestions (§2.1):")
	fmt.Print(rep.Format())

	// Step 2: apply the suggested fixes and re-run.
	s2 := core.NewSession(core.Config{GCThreshold: 64 << 10})
	start = time.Now()
	checksum2 := spec.Run(s2.Runtime(), workloads.Tuned, *scale)
	tunedTime := time.Since(start)
	s2.FinalGC()
	tunedHeap := s2.Heap.MinimalHeap()

	if checksum != checksum2 {
		panic("tuned variant changed the analysis result!")
	}

	fmt.Printf("\nbefore: minimal heap %8d bytes, %8.2fms, %d GCs\n",
		baseHeap, float64(baseTime.Microseconds())/1000, s.Heap.Stats().NumGC)
	fmt.Printf("after:  minimal heap %8d bytes, %8.2fms, %d GCs\n",
		tunedHeap, float64(tunedTime.Microseconds())/1000, s2.Heap.Stats().NumGC)
	fmt.Printf("minimal heap reduced by %.1f%% (paper: 53.95%%); result unchanged (checksum %#x)\n",
		100*float64(baseHeap-tunedHeap)/float64(baseHeap), checksum)
}
