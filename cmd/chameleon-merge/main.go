// Command chameleon-merge is the fleet aggregation tool: it combines
// profile snapshots from many processes into one fleet profile
// (internal/fleet, docs/FLEET.md).
//
//	chameleon-merge a.json b.json c.json            # merge, print report
//	chameleon-merge -o fleet.json *.json            # write the fleet snapshot
//	chameleon-merge -advise *.json                  # advisor over the aggregate
//
// Corrupt or torn inputs never abort a merge: damage degrades the source
// it came from, per record, and every drop is accounted in the report.
//
// Exit codes form a contract scripts can dispatch on:
//
//	0  success
//	1  runtime failure (write failure, every source dead), or a -rules
//	   file that does not read, parse or check
//	2  usage error, including -rules with -extended
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"chameleon/internal/advisor"
	"chameleon/internal/fleet"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
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
// It is the testable entry point: main only binds it to os.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chameleon-merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the merged fleet snapshot to this file (v3 format)")
	advise := fs.Bool("advise", false, "run the advisor over the merged profile and print the report")
	asJSON := fs.Bool("json", false, "emit the merge report (and advice with -advise) as JSON")
	top := fs.Int("top", 0, "limit the advisor report to the top-K contexts (0 = all)")
	rulesFile := fs.String("rules", "", "rule file for -advise (default: built-in Table 2 rules)")
	extended := fs.Bool("extended", false, "use the extended rule set for -advise")
	minEvidence := fs.Int64("min-evidence", 0, "per-source evidence needed to join skew detection (0 = default 8)")
	minConfidence := fs.Float64("min-confidence", 0, "cross-source agreement below which a context is conflicted (0 = default 0.7)")
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	mergeOpts := fleet.Options{MinSourceEvidence: *minEvidence, MinConfidence: *minConfidence}
	rs, _, err := rules.Choose(*rulesFile, false, *extended, rules.DefaultParams)
	if err != nil {
		fmt.Fprintln(stderr, "chameleon-merge:", err)
		if errors.Is(err, rules.ErrRuleSources) {
			return exitUsage
		}
		return exitFailure
	}
	advOpts := advisor.Options{Top: *top, Rules: rs}

	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "chameleon-merge: no snapshots given")
		usage(stderr)
		return exitUsage
	}
	return runMerge(fs.Args(), mergeOpts, advOpts, *out, *advise, *asJSON, stdout, stderr)
}

// runMerge is the one-shot mode: read every snapshot, merge, report.
func runMerge(paths []string, mergeOpts fleet.Options, advOpts advisor.Options, out string, advise, asJSON bool, stdout, stderr io.Writer) int {
	var sources []fleet.Source
	for _, path := range paths {
		s, err := fleet.ReadSourceFile(path)
		if err != nil {
			// Degrade, don't die: the source is merged as failed and the
			// report says why.
			fmt.Fprintf(stderr, "chameleon-merge: %s: %v (source degraded)\n", path, err)
		}
		sources = append(sources, s)
	}
	res := fleet.Merge(sources, mergeOpts)
	if res.Report.FailedSources == len(sources) {
		fmt.Fprintln(stderr, "chameleon-merge: every source failed; nothing to merge")
		return exitFailure
	}

	var rep *advisor.Report
	if advise {
		var err error
		if rep, err = res.Advise(advOpts); err != nil {
			fmt.Fprintln(stderr, "chameleon-merge:", err)
			return exitFailure
		}
	}
	if asJSON {
		payload := struct {
			Report      fleet.MergeReport             `json:"report"`
			Annotations map[string]advisor.Annotation `json:"annotations"`
			Advice      *advisor.Report               `json:"advice,omitempty"`
		}{res.Report, res.Annotations, rep}
		b, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "chameleon-merge:", err)
			return exitFailure
		}
		fmt.Fprintln(stdout, string(b))
	} else {
		fmt.Fprintf(stdout, "merged: %s\n", res.Report)
		for _, sr := range res.Report.Sources {
			line := fmt.Sprintf("  %-24s %d record(s)", sr.Name, sr.Records)
			if sr.Duplicates > 0 {
				line += fmt.Sprintf(", %d duplicate(s)", sr.Duplicates)
			}
			if sr.Dropped > 0 {
				line += fmt.Sprintf(", %d dropped", sr.Dropped)
			}
			if sr.Err != "" {
				line += " FAILED: " + sr.Err
			}
			fmt.Fprintln(stdout, line)
		}
		if len(res.Report.Conflicted) > 0 {
			fmt.Fprintf(stdout, "conflicted contexts (excluded from plans):\n")
			for _, ctx := range res.Report.Conflicted {
				fmt.Fprintf(stdout, "  %s\n    %s\n", ctx, res.Annotations[ctx])
			}
		}
		if rep != nil {
			fmt.Fprintf(stdout, "\nfleet advice:\n%s", rep.Format())
		}
	}

	if out != "" {
		if err := profiler.WriteProfilesFile(out, res.Profiles); err != nil {
			fmt.Fprintln(stderr, "chameleon-merge:", err)
			return exitFailure
		}
		fmt.Fprintf(stderr, "chameleon-merge: fleet snapshot written to %s\n", out)
	}
	return exitOK
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  chameleon-merge [flags] <snapshot.json>...     merge snapshots, print report

flags:
  -o file            write the merged fleet snapshot (v3 format)
  -advise            run the advisor over the aggregate (-rules/-extended/-top)
  -json              machine-readable report
  -min-evidence N    per-source evidence to join skew detection (default 8)
  -min-confidence F  agreement threshold below which a context conflicts (default 0.7)
`)
}
