// Command chameleon-bench regenerates the paper's evaluation figures and
// tables (§5) against the simulated substrate:
//
//	fig2      — TVLA: collections as % of live data per GC cycle
//	fig3      — TVLA: top allocation contexts + suggestions (§2.1 report)
//	fig6      — minimal-heap improvement per benchmark
//	fig7      — running-time improvement per benchmark
//	fig8      — bloat: the collections spike
//	sweep     — §2.3 hybrid conversion-threshold sweep on TVLA
//	calibrate — §3.3.1 per-environment rule-constant calibration
//	plan      — §3.3.2 tool-applied plan: profile -> plan -> re-run
//	auto      — §5.4 fully-automatic-mode overhead (TVLA vs PMD)
//	all       — everything above
//
// Usage: chameleon-bench -experiment fig6 [-scale N] [-reps R]
//
// Exit codes follow the contract the other chameleon CLIs share:
//
//	0  success
//	1  an experiment failed
//	2  usage error: bad flags, an unknown experiment or stray arguments
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"chameleon/internal/experiments"
	"chameleon/internal/workloads"
)

const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
)

// settings are the knobs every experiment reads.
type settings struct {
	scale  int            // one scale for the single-workload experiments
	scales map[string]int // per-workload scales for the table experiments
	reps   int
}

// experiment is one figure or table, in the order "all" runs them.
type experiment struct {
	name, title string
	run         func(w io.Writer, s settings) error
}

var experimentList = []experiment{
	{"fig2", "Fig. 2: TVLA collections as % of live data per GC cycle", func(w io.Writer, s settings) error {
		pts, err := experiments.Fig2(s.scale)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatSeries(pts, len(pts)/40+1))
		return nil
	}},
	{"fig3", "Fig. 3 + §2.1: TVLA top contexts and suggestions", func(w io.Writer, s settings) error {
		res, err := experiments.Fig3(s.scale)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Format())
		return nil
	}},
	{"fig6", "Fig. 6: minimal-heap improvement per benchmark", func(w io.Writer, s settings) error {
		rows, err := experiments.Fig6(s.scales)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatFig6(rows))
		return nil
	}},
	{"fig7", "Fig. 7: running-time improvement per benchmark", func(w io.Writer, s settings) error {
		rows, err := experiments.Fig7(s.scales, s.reps)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatFig7(rows))
		return nil
	}},
	{"fig8", "Fig. 8: bloat collections spike", func(w io.Writer, s settings) error {
		pts, err := experiments.Fig8(s.scale)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatSeries(pts, len(pts)/40+1))
		return nil
	}},
	{"sweep", "§2.3: SizeAdapting conversion-threshold sweep on TVLA", func(w io.Writer, s settings) error {
		rows, base, err := experiments.Sweep(nil, s.scale, s.reps)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatSweep(rows, base))
		return nil
	}},
	{"calibrate", "§3.3.1: per-environment rule-constant calibration (Z)", func(w io.Writer, s settings) error {
		fmt.Fprint(w, experiments.FormatCalibration(experiments.Calibrate(nil, 0, s.reps)))
		return nil
	}},
	{"plan", "§3.3.2: tool-applied plan (profile -> plan -> re-run)", func(w io.Writer, s settings) error {
		for _, name := range []string{"tvla", "findbugs"} {
			r, err := experiments.ProfileThenApply(name, s.scale, nil)
			if err != nil {
				return err
			}
			fmt.Fprint(w, experiments.FormatPlanResult(r))
			fmt.Fprintln(w)
		}
		return nil
	}},
	{"auto", "§5.4: fully-automatic online mode overhead", func(w io.Writer, s settings) error {
		rows, err := experiments.AutoOverhead(s.scales, s.reps)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatAuto(rows))
		return nil
	}},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes a full command line and reports the process exit status.
// It is the testable entry point: main only binds it to os. Every usage
// error is found before any experiment runs.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(experimentList)+1)
	for _, e := range experimentList {
		names = append(names, e.name)
	}
	names = append(names, "all")
	fs := flag.NewFlagSet("chameleon-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which = fs.String("experiment", "all", strings.Join(names, "|"))
		scale = fs.Int("scale", 0, "override every workload's scale (0 = defaults)")
		reps  = fs.Int("reps", 3, "timing repetitions: pairs, medians (calibrate: best of)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "chameleon-bench: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return exitUsage
	}
	var chosen []experiment
	for _, e := range experimentList {
		if *which == e.name || *which == "all" {
			chosen = append(chosen, e)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "chameleon-bench: unknown experiment %q (want %s)\n", *which, strings.Join(names, ", "))
		return exitUsage
	}

	s := settings{scale: *scale, scales: map[string]int{}, reps: *reps}
	if *scale > 0 {
		for _, w := range workloads.All() {
			s.scales[w.Name] = *scale
		}
	}
	for _, e := range chosen {
		fmt.Fprintf(stdout, "== %s ==\n", e.title)
		if err := e.run(stdout, s); err != nil {
			fmt.Fprintf(stderr, "chameleon-bench: %s: %v\n", e.title, err)
			return exitFailure
		}
		fmt.Fprintln(stdout)
	}
	return exitOK
}
