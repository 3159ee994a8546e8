// Command chameleon-bench regenerates the paper's evaluation figures and
// tables (§5) against the simulated substrate:
//
//	fig2  — TVLA: collections as % of live data per GC cycle
//	fig3  — TVLA: top allocation contexts + suggestions (§2.1 report)
//	fig6  — minimal-heap improvement per benchmark
//	fig7  — running-time improvement per benchmark
//	fig8  — bloat: the collections spike
//	sweep — §2.3 hybrid conversion-threshold sweep on TVLA
//	plan  — §3.3.2 tool-applied plan: profile -> plan -> re-run
//	auto  — §5.4 fully-automatic-mode overhead (TVLA vs PMD)
//	all   — everything above
//
// Usage: chameleon-bench -experiment fig6 [-scale N] [-reps R]
package main

import (
	"flag"
	"fmt"
	"os"

	"chameleon/internal/experiments"
	"chameleon/internal/workloads"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig2|fig3|fig6|fig7|fig8|sweep|auto|all")
		scale      = flag.Int("scale", 0, "override every workload's scale (0 = defaults)")
		reps       = flag.Int("reps", 3, "timing repetitions (minimum is reported)")
	)
	flag.Parse()

	scales := map[string]int{}
	if *scale > 0 {
		for _, s := range workloads.All() {
			scales[s.Name] = *scale
		}
	}

	run := func(name string, f func() error) {
		fmt.Printf("== %s ==\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "chameleon-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	want := func(name string) bool { return *experiment == name || *experiment == "all" }

	if want("fig2") {
		run("Fig. 2: TVLA collections as % of live data per GC cycle", func() error {
			pts, err := experiments.Fig2(*scale)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatSeries(pts, len(pts)/40+1))
			return nil
		})
	}
	if want("fig3") {
		run("Fig. 3 + §2.1: TVLA top contexts and suggestions", func() error {
			res, err := experiments.Fig3(*scale)
			if err != nil {
				return err
			}
			fmt.Print(res.Format())
			return nil
		})
	}
	if want("fig6") {
		run("Fig. 6: minimal-heap improvement per benchmark", func() error {
			rows, err := experiments.Fig6(scales)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFig6(rows))
			return nil
		})
	}
	if want("fig7") {
		run("Fig. 7: running-time improvement per benchmark", func() error {
			rows, err := experiments.Fig7(scales, *reps)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFig7(rows))
			return nil
		})
	}
	if want("fig8") {
		run("Fig. 8: bloat collections spike", func() error {
			pts, err := experiments.Fig8(*scale)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatSeries(pts, len(pts)/40+1))
			return nil
		})
	}
	if want("sweep") {
		run("§2.3: SizeAdapting conversion-threshold sweep on TVLA", func() error {
			rows, base, err := experiments.Sweep(nil, *scale, *reps)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatSweep(rows, base))
			return nil
		})
	}
	if want("calibrate") {
		run("§3.3.1: per-environment rule-constant calibration (Z)", func() error {
			fmt.Print(experiments.FormatCalibration(experiments.Calibrate(nil, 0, *reps)))
			return nil
		})
	}
	if want("plan") {
		run("§3.3.2: tool-applied plan (profile -> plan -> re-run)", func() error {
			for _, name := range []string{"tvla", "findbugs"} {
				r, err := experiments.ProfileThenApply(name, *scale)
				if err != nil {
					return err
				}
				fmt.Print(experiments.FormatPlanResult(r))
				fmt.Println()
			}
			return nil
		})
	}
	if want("auto") {
		run("§5.4: fully-automatic online mode overhead", func() error {
			rows, err := experiments.AutoOverhead(scales, *reps)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatAuto(rows))
			return nil
		})
	}
	switch *experiment {
	case "fig2", "fig3", "fig6", "fig7", "fig8", "sweep", "plan", "calibrate", "auto", "all":
	default:
		fmt.Fprintf(os.Stderr, "chameleon-bench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}
