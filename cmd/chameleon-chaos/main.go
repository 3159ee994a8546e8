// Command chameleon-chaos is the deterministic fault-schedule
// orchestrator: it generates seeded pseudo-random schedules of fault
// events over every injection seam in the runtime (internal/faults),
// runs the registered workload scenarios under each schedule, and
// audits system invariants — checksum unchanged vs a fault-free
// reference, accounting conservation, no-wedge liveness, panic
// containment (docs/ROBUSTNESS.md).
//
// When a schedule trips an auditor, the failing schedule is shrunk by
// delta debugging to a minimal reproducer and written as replayable
// JSON; -replay re-executes a reproducer and verifies it still trips
// the same auditor, deterministically.
//
//	chameleon-chaos -seeds 32                      # full soak, all scenarios
//	chameleon-chaos -scenarios phaseshift,server -seeds 8
//	chameleon-chaos -seeds 8 -out artifacts/       # reproducers land here
//	chameleon-chaos -replay repro-server-7.json    # re-run a reproducer
//	chameleon-chaos -list                          # scenarios, seams, auditors
//
// Exit codes form a contract scripts can dispatch on:
//
//	0  success: every run passed every auditor (or -replay reproduced)
//	1  runtime failure (unreadable schedule, unwritable artifact)
//	2  usage error
//	3  invariant violation found (soak), or -replay no longer reproduces
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"chameleon/internal/chaos"
)

const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
	exitAssert  = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes a full command line and reports the process exit status.
// It is the testable entry point: main only binds it to os.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chameleon-chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Uint64("seeds", 8, "seeds to run per scenario (1..N)")
	scenarios := fs.String("scenarios", "", "comma-separated scenarios (default: all)")
	events := fs.Int("events", 6, "fault events per generated schedule")
	out := fs.String("out", ".", "directory for shrunk reproducer artifacts")
	noShrink := fs.Bool("no-shrink", false, "report violations without shrinking")
	replay := fs.String("replay", "", "re-run this reproducer file and verify it still trips its auditor")
	list := fs.Bool("list", false, "print scenarios, seams and auditors, then exit")
	asJSON := fs.Bool("json", false, "emit one JSON result object per run")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "chameleon-chaos: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return exitUsage
	}

	if *list {
		fmt.Fprintf(stdout, "scenarios: %s\n", strings.Join(chaos.Scenarios(), " "))
		fmt.Fprintf(stdout, "seams:     %s\n", strings.Join(chaos.Seams(), " "))
		fmt.Fprintf(stdout, "auditors:  %s\n", strings.Join(chaos.Auditors(), " "))
		return exitOK
	}

	h := chaos.NewHarness()

	if *replay != "" {
		return runReplay(h, *replay, *asJSON, stdout, stderr)
	}

	scs := chaos.Scenarios()
	if *scenarios != "" {
		scs = strings.Split(*scenarios, ",")
	}
	if *seeds < 1 || *events < 1 {
		fmt.Fprintln(stderr, "chameleon-chaos: -seeds and -events must be >= 1")
		return exitUsage
	}

	violations := 0
	for _, sc := range scs {
		sc = strings.TrimSpace(sc)
		for seed := uint64(1); seed <= *seeds; seed++ {
			s := chaos.Generate(seed, sc, *events)
			res, err := h.Run(s)
			if err != nil {
				fmt.Fprintf(stderr, "chameleon-chaos: %s seed %d: %v\n", sc, seed, err)
				return exitUsage
			}
			printResult(stdout, res, *asJSON)
			if len(res.Violations) == 0 {
				continue
			}
			violations++
			auditor := res.Outcome()
			repro := s
			if !*noShrink {
				repro = h.Shrink(s, auditor)
				fmt.Fprintf(stdout, "  shrunk: %d -> %d event(s)\n", len(s.Events), len(repro.Events))
			} else {
				repro.Violation = auditor
			}
			path := filepath.Join(*out, fmt.Sprintf("repro-%s-%d.json", sc, seed))
			if err := repro.WriteFile(path); err != nil {
				fmt.Fprintf(stderr, "chameleon-chaos: writing reproducer: %v\n", err)
				return exitFailure
			}
			fmt.Fprintf(stdout, "  reproducer: %s (replay with -replay %s)\n", path, path)
		}
	}
	if violations > 0 {
		fmt.Fprintf(stdout, "FAIL: %d schedule(s) violated invariants\n", violations)
		return exitAssert
	}
	fmt.Fprintf(stdout, "PASS: %d scenario(s) x %d seed(s), all auditors clean\n", len(scs), *seeds)
	return exitOK
}

// runReplay re-executes a reproducer and checks that it still trips the
// auditor recorded in its Violation field. A reproducer whose Violation
// is empty (a known-good schedule) must instead pass every auditor —
// that is the CI replay-smoke mode.
func runReplay(h *chaos.Harness, path string, asJSON bool, stdout, stderr io.Writer) int {
	s, err := chaos.ReadScheduleFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "chameleon-chaos: %v\n", err)
		return exitFailure
	}
	res, err := h.Run(s)
	if err != nil {
		fmt.Fprintf(stderr, "chameleon-chaos: %v\n", err)
		return exitFailure
	}
	printResult(stdout, res, asJSON)
	got := res.Outcome()
	if got == s.Violation {
		if s.Violation == "" {
			fmt.Fprintf(stdout, "REPLAY PASS: known-good schedule stays clean\n")
		} else {
			fmt.Fprintf(stdout, "REPLAY PASS: reproduces %q deterministically\n", s.Violation)
		}
		return exitOK
	}
	fmt.Fprintf(stdout, "REPLAY FAIL: recorded violation %q, this run produced %q\n", s.Violation, got)
	return exitAssert
}

// printResult renders one run: scenario, seed, per-seam fire tallies and
// the verdict, or the full result as a JSON object with -json.
func printResult(w io.Writer, res *chaos.Result, asJSON bool) {
	if asJSON {
		b, _ := json.Marshal(res)
		fmt.Fprintln(w, string(b))
		return
	}
	verdict := "ok"
	if len(res.Violations) > 0 {
		verdict = "VIOLATION " + res.Outcome()
		for _, v := range res.Violations {
			verdict += fmt.Sprintf(" [%s: %s]", v.Auditor, v.Detail)
		}
	}
	fmt.Fprintf(w, "%-12s seed %-3d events %d  fires %s  %s\n",
		res.Schedule.Scenario, res.Schedule.Seed, len(res.Schedule.Events), fireSummary(res), verdict)
}

// fireSummary compacts the per-seam tallies into seam:fires/consults
// pairs, skipping seams that were never consulted.
func fireSummary(res *chaos.Result) string {
	var parts []string
	for _, seam := range chaos.Seams() {
		f, ok := res.Fires[seam]
		if !ok || f.Consults == 0 {
			continue
		}
		if f.Fires > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", seam, f.Fires))
		}
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, " ")
}
