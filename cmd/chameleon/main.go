// Command chameleon runs a workload under semantic collections profiling
// and prints the ranked per-context report with rule-engine suggestions —
// the tool's primary user-facing output (paper §2.1).
//
// Usage:
//
//	chameleon -workload tvla [-scale N] [-top K] [-rules file] [-json]
//	          [-mode static|dynamic|off] [-online] [-gc-threshold bytes]
//	chameleon -list
//	chameleon -print-rules
//
// Exit codes follow the contract the other chameleon CLIs share:
//
//	0  success
//	1  failure: the run, a rules file (unreadable, unparseable or
//	   failing check) or an output file failed
//	2  usage error: bad flags, unknown workload or mode, or flags that
//	   do not combine (-rules with -extended)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"chameleon/internal/adaptive"
	"chameleon/internal/advisor"
	"chameleon/internal/alloctx"
	"chameleon/internal/core"
	"chameleon/internal/experiments"
	"chameleon/internal/heap"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
	"chameleon/internal/workloads"
)

const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes a full command line and reports the process exit status.
// It is the testable entry point: main only binds it to os. Reports go to
// stdout, progress and diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chameleon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload    = fs.String("workload", "tvla", "workload to profile (see -list)")
		scale       = fs.Int("scale", 0, "workload scale (0 = workload default)")
		top         = fs.Int("top", 10, "show the top-K contexts")
		rulesFile   = fs.String("rules", "", "file of selection rules (default: built-in Table 2 rules)")
		asJSON      = fs.Bool("json", false, "emit the suggestion report as JSON")
		mode        = fs.String("mode", "static", "allocation-context capture: static, dynamic or off")
		online      = fs.Bool("online", false, "enable fully-automatic online replacement (§3.3.2)")
		gcThreshold = fs.Int64("gc-threshold", 64<<10, "simulated-GC threshold in bytes")
		variant     = fs.String("variant", "baseline", "workload variant: baseline or tuned")
		list        = fs.Bool("list", false, "list available workloads")
		printRules  = fs.Bool("print-rules", false, "print the built-in rule set and exit")
		series      = fs.Bool("series", false, "also print the per-GC-cycle potential series (Fig. 2 view)")
		ctxSeries   = fs.Int("context-series", 0, "also print the per-cycle series of the top-K contexts (§4.4)")
		profileOut  = fs.String("profile-out", "", "write the profile snapshot as JSON (for chameleon-rules eval)")
		compare     = fs.Bool("compare", false, "run baseline AND tuned, print per-context gains (§5.2 step 5)")
		plan        = fs.Bool("plan", false, "profile, derive a plan from the report, re-run with it applied (§3.3.2)")
		extended    = fs.Bool("extended", false, "use the extended rule set (SinglyLinkedList, open addressing)")
		workers     = fs.Int("workers", 1, "concurrent workers (server and contextstorm workloads)")
		maxContexts = fs.Int("max-contexts", 0, "context budget: intern at most this many contexts, alias the rest to (overflow) (0 = unbounded)")
		overheadPct = fs.Float64("overhead-budget", 0, "overhead governor target as a fraction of wall time, e.g. 0.05 (0 = governor off)")
		govInterval = fs.Duration("governor-interval", 25*time.Millisecond, "overhead governor tick interval")
		healthOut   = fs.String("health-out", "", "write the end-of-run health snapshot as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "chameleon:", err)
		return exitUsage
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "chameleon:", err)
		return exitFailure
	}
	if fs.NArg() > 0 {
		return usage(fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " ")))
	}

	if *printRules {
		fmt.Fprint(stdout, rules.Print(rules.Builtin()))
		return exitOK
	}
	if *list {
		for _, s := range workloads.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", s.Name, s.Description)
		}
		return exitOK
	}

	spec, err := workloads.ByName(*workload)
	if err != nil {
		return usage(err)
	}
	if *scale <= 0 {
		*scale = spec.DefaultScale
	}
	var v workloads.Variant
	switch *variant {
	case "baseline":
		v = workloads.Baseline
	case "tuned":
		v = workloads.Tuned
	default:
		return usage(fmt.Errorf("unknown -variant %q (want baseline or tuned)", *variant))
	}
	if *workers > 1 && spec.Name != workloads.ServerSpec.Name && spec.Name != workloads.ContextStormSpec.Name &&
		spec.Name != workloads.FrontendSpec.Name {
		return usage(fmt.Errorf("-workers %d: only the server, contextstorm and frontend workloads run concurrently", *workers))
	}

	var ctxMode alloctx.Mode
	switch *mode {
	case "static":
		ctxMode = alloctx.Static
	case "dynamic":
		ctxMode = alloctx.Dynamic
	case "off":
		ctxMode = alloctx.Off
	default:
		return usage(fmt.Errorf("unknown -mode %q", *mode))
	}

	// One set drives every decision of the run: the report, -plan and the
	// online selector. A nil set is the builtin one downstream.
	ruleSet, _, err := rules.Choose(*rulesFile, false, *extended, rules.DefaultParams)
	switch {
	case errors.Is(err, rules.ErrRuleSources):
		return usage(err)
	case err != nil:
		return fail(err)
	}
	if *rulesFile != "" {
		// Vet the user's rules before spending a profiling run on them:
		// warnings are advisory, error-severity findings (rules that
		// provably never fire) abort like vocabulary errors do.
		vetErrors := 0
		for _, d := range ruleSet.Diagnostics() {
			fmt.Fprintln(stderr, "chameleon: rule vet:", d)
			if d.Severity == rules.SevError {
				vetErrors++
			}
		}
		if vetErrors > 0 {
			return exitFailure
		}
	}

	if *compare {
		if err := runCompare(stdout, spec, *scale, ctxMode, *gcThreshold); err != nil {
			return fail(err)
		}
		return exitOK
	}
	if *plan {
		res, err := experiments.ProfileThenApply(spec.Name, *scale, ruleSet)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, experiments.FormatPlanResult(res))
		return exitOK
	}

	s := core.NewSession(core.Config{
		Mode:           ctxMode,
		GCThreshold:    *gcThreshold,
		Online:         *online,
		OnlineOptions:  adaptive.Options{Rules: ruleSet},
		KeepSnapshots:  *series || *ctxSeries > 0,
		KeepContexts:   *ctxSeries > 0,
		MaxContexts:    *maxContexts,
		OverheadBudget: *overheadPct,
	})
	fmt.Fprintf(stderr, "chameleon: running %s (%s, scale %d, %s contexts, online=%v, workers=%d)\n",
		spec.Name, v, *scale, ctxMode, *online, *workers)
	s.StartGovernor(*govInterval)
	var checksum uint64
	var frontend *workloads.FrontendResult
	switch {
	case spec.Name == workloads.FrontendSpec.Name:
		res := workloads.FrontendRun(s.Runtime(), *scale, *workers)
		checksum = res.Checksum
		frontend = &res
	case *workers > 1 && spec.Name == workloads.ContextStormSpec.Name:
		checksum = workloads.RunContextStormWorkers(s.Runtime(), v, *scale, *workers)
	case *workers > 1:
		checksum = workloads.RunServerWorkers(s.Runtime(), v, *scale, *workers)
	default:
		checksum = spec.Run(s.Runtime(), v, *scale)
	}
	s.StopGovernor()
	s.FinalGC()

	st := s.Heap.Stats()
	fmt.Fprintf(stdout, "run complete: checksum=%#x\n", checksum)
	if frontend != nil {
		fmt.Fprintf(stdout, "latency: p50=%v p99=%v p999=%v (%d requests, %.0f req/s)\n",
			frontend.P50, frontend.P99, frontend.P999, frontend.Requests, frontend.Throughput)
	}
	fmt.Fprintf(stdout, "heap: peak live=%d bytes, minimal heap=%d bytes, GC cycles=%d, allocated=%d bytes\n",
		st.PeakLive, s.Heap.MinimalHeap(), st.NumGC, st.TotalAllocated)
	fmt.Fprintf(stdout, "collections: max live=%d used=%d core=%d bytes (%d objects max)\n\n",
		st.MaxCollections.Live, st.MaxCollections.Used, st.MaxCollections.Core, st.MaxCollectionNo)

	// Always surface the operating tier — a run that finished under budget
	// still needs its profiling conditions on record (a report gathered at
	// a degraded tier reads differently from a full-fidelity one).
	health := s.Health()
	printHealthReport(stdout, health)
	if *healthOut != "" {
		out, err := json.MarshalIndent(health, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*healthOut, append(out, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "chameleon: health snapshot written to %s\n", *healthOut)
	}

	if *series {
		fmt.Fprintln(stdout, "per-cycle potential series (Fig. 2 view):")
		fmt.Fprint(stdout, experiments.FormatSeries(s.PotentialSeries(), len(s.PotentialSeries())/40+1))
		fmt.Fprintln(stdout)
	}

	if *ctxSeries > 0 {
		fmt.Fprintf(stdout, "per-context series, top %d by peak live (§4.4):\n", *ctxSeries)
		cs := experiments.TopContextSeries(s, *ctxSeries)
		fmt.Fprint(stdout, experiments.FormatContextSeries(cs, len(s.Heap.Snapshots())/20+1))
		cycle, dist := experiments.PeakTypeDistribution(s)
		fmt.Fprintf(stdout, "type distribution at peak cycle %d: %s\n\n", cycle, heap.FormatTypeDist(dist))
	}

	if *profileOut != "" {
		// Crash-safe write: temp file + fsync + rename, so an interrupted
		// run never leaves a torn snapshot (docs/ROBUSTNESS.md).
		if err := profiler.WriteProfilesFile(*profileOut, s.Prof.Snapshot()); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "chameleon: profile snapshot written to %s\n", *profileOut)
	}

	rep, err := s.Report(advisor.Options{Rules: ruleSet, Top: *top})
	if err != nil {
		return fail(err)
	}
	if *asJSON {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(out))
		return exitOK
	}
	fmt.Fprintf(stdout, "top %d allocation contexts (Fig. 3 view):\n", *top)
	fmt.Fprint(stdout, rep.FormatTopContexts(*top))
	fmt.Fprintln(stdout, "\nsuggestions (§2.1 report):")
	fmt.Fprint(stdout, rep.Format())
	if s.Selector != nil {
		printOnlineReport(stdout, s)
	}
	return exitOK
}

// printHealthReport summarizes the overload-protection state: the context
// budget with its overflow accounting, and — when the governor ran — the
// degradation-ladder position with its transition history
// (docs/ROBUSTNESS.md).
func printHealthReport(w io.Writer, h core.Health) {
	fmt.Fprintf(w, "profiling health: tier=%s\n", h.Tier)
	b := h.Budget
	if b.MaxContexts > 0 {
		fmt.Fprintf(w, "  context budget: %d max, %d interned, %d tracked by profiler, %d live instances\n",
			b.MaxContexts, b.TableContexts, b.ProfilerContexts, b.LiveInstances)
		fmt.Fprintf(w, "  overflow: %d denied admissions, %d allocs attributed to %s\n",
			b.TableOverflowAdmissions, b.OverflowAllocs, alloctx.OverflowLabel)
	}
	if g := h.Governor; g != nil {
		fmt.Fprintf(w, "  governor: target overhead %.2f%%, last measured %.2f%%, rate 1/%d, %d transitions\n",
			100*g.TargetOverhead, 100*g.LastOverhead, g.Rate, g.TransitionCount)
		for _, tr := range g.Transitions {
			fmt.Fprintf(w, "    tick %d: %s -> %s (rate 1/%d, overhead %.2f%%, %s)\n",
				tr.Tick, tr.From, tr.To, tr.Rate, 100*tr.Overhead, tr.Reason)
		}
	}
	fmt.Fprintln(w)
}

// printOnlineReport summarizes the guarded online adaptation: the
// selector-wide counters and each context's position in the decision state
// machine (docs/ROBUSTNESS.md).
func printOnlineReport(w io.Writer, s *core.Session) {
	sel := s.Selector
	fmt.Fprintf(w, "\nonline mode: %d allocations received a replaced implementation\n", sel.Replacements())
	fmt.Fprintf(w, "guarded adaptation: %d rule evaluations, %d verified, %d rolled back, %d quarantines, %d contained panics\n",
		sel.Decides(), sel.Verifies(), sel.Rollbacks(), sel.Quarantines(), sel.Panics())
	if disabled, msg := sel.Disabled(); disabled {
		fmt.Fprintf(w, "selector DISABLED: panic budget exhausted (%s)\n", msg)
	}
	if h := s.Runtime().SelectorHealth(); h.Panics > 0 {
		fmt.Fprintf(w, "runtime containment: %d selector panics recovered on the allocation path (last: %s)\n",
			h.Panics, h.LastError)
	}
	sts := sel.Statuses()
	if len(sts) == 0 {
		return
	}
	fmt.Fprintln(w, "per-context decision state:")
	for _, cs := range sts {
		label := fmt.Sprintf("ctx %#x", cs.Context)
		if c := s.Contexts.Lookup(cs.Context); c != nil {
			label = c.String()
		}
		line := fmt.Sprintf("  %-11s %s", cs.Status, label)
		if cs.Applied {
			line += fmt.Sprintf(" -> %v", cs.Decision.Impl)
			if cs.Decision.Capacity > 0 {
				line += fmt.Sprintf("(cap %d)", cs.Decision.Capacity)
			}
		}
		var notes []string
		if cs.Rollbacks > 0 {
			notes = append(notes, fmt.Sprintf("rollbacks=%d", cs.Rollbacks))
		}
		if cs.Panics > 0 {
			notes = append(notes, fmt.Sprintf("panics=%d", cs.Panics))
		}
		// Backoff and LastError outlive the quarantine that set them: on a
		// re-decided context they describe the previous decision.
		quarantined := cs.Status == adaptive.StatusQuarantined
		if quarantined && cs.Backoff > 0 {
			notes = append(notes, fmt.Sprintf("backoff=%d", cs.Backoff))
		}
		switch {
		case cs.LastError == "":
		case quarantined || cs.Rollbacks+cs.Panics == 0:
			notes = append(notes, cs.LastError)
		default:
			notes = append(notes, "previous decision: "+cs.LastError)
		}
		if len(notes) > 0 {
			line += " [" + strings.Join(notes, ", ") + "]"
		}
		fmt.Fprintln(w, line)
	}
}

// runCompare executes the §5.2 step 5 comparison: profile the baseline and
// the tuned variant, then print per-context gains and the overall
// minimal-heap change.
func runCompare(w io.Writer, spec workloads.Spec, scale int, mode alloctx.Mode, gcThreshold int64) error {
	runOne := func(v workloads.Variant) (*core.Session, uint64) {
		s := core.NewSession(core.Config{Mode: mode, GCThreshold: gcThreshold})
		sum := spec.Run(s.Runtime(), v, scale)
		s.FinalGC()
		return s, sum
	}
	before, sumB := runOne(workloads.Baseline)
	after, sumT := runOne(workloads.Tuned)
	if sumB != sumT {
		return fmt.Errorf("tuned variant changed the computed result")
	}
	deltas := advisor.Compare(before.Prof.Snapshot(), after.Prof.Snapshot())
	fmt.Fprintf(w, "per-context gains, %s baseline -> tuned (top 15):\n", spec.Name)
	fmt.Fprint(w, advisor.FormatCompare(deltas, 15))
	b, a := before.Heap.MinimalHeap(), after.Heap.MinimalHeap()
	fmt.Fprintf(w, "\nminimal heap: %d -> %d bytes (%.2f%% improvement)\n",
		b, a, 100*float64(b-a)/float64(b))
	fmt.Fprintf(w, "GC cycles: %d -> %d\n", before.Heap.Stats().NumGC, after.Heap.Stats().NumGC)
	return nil
}
