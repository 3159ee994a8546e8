// Command chameleon-sites is the static half of the chameleon workflow:
// it discovers every collection allocation site in a Go program, proves
// or refutes each site's specialization safety, and emits the versioned
// site manifest that joins static sites to runtime profile snapshots
// (internal/analysis, docs/ANALYSIS.md).
//
//	chameleon-sites ./...                          # analyze, print findings
//	chameleon-sites -manifest sites.json ./...     # also write the manifest
//	chameleon-sites -builtin ./...                 # cross-check the builtin rules
//	chameleon-sites -profile p.json ./...          # cross-check a snapshot
//
// Exit codes form a contract scripts can dispatch on, aligned with
// chameleon-rules:
//
//	0  success (no error-severity diagnostics)
//	1  runtime failure, or error-severity diagnostics (warnings too with -strict)
//	2  usage error
//	3  an input does not load: packages fail to type-check, the rules
//	   file does not read, parse or check, or the snapshot does not read
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"chameleon/internal/analysis"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
)

const (
	exitOK       = 0
	exitFailure  = 1 // runtime failure, or error-severity diagnostics
	exitUsage    = 2
	exitBadInput = 3 // packages, rules, or snapshot fail to load
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes a full command line and reports the process exit status.
// It is the testable entry point: main only binds it to os.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chameleon-sites", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory to resolve package patterns in")
	manifestPath := fs.String("manifest", "", "write the site manifest JSON to this path")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	all := fs.Bool("all", false, "print info-level findings too, not only warnings and errors")
	strict := fs.Bool("strict", false, "exit 1 on warnings, not only errors")
	rulesFile := fs.String("rules", "", "cross-check a rule file (S009 dead rules, S010 uncovered sites)")
	builtin := fs.Bool("builtin", false, "cross-check the shipped builtin rule set")
	extended := fs.Bool("extended", false, "cross-check the shipped extended rule set")
	profilePath := fs.String("profile", "", "cross-check a profile snapshot (S011 stale contexts)")
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var opts analysis.Options
	var err error
	opts.Rules, opts.RuleFile, err = rules.Choose(*rulesFile, *builtin, *extended, rules.DefaultParams)
	if err != nil {
		fmt.Fprintln(stderr, "chameleon-sites:", err)
		if errors.Is(err, rules.ErrRuleSources) {
			return exitUsage
		}
		return exitBadInput
	}
	if *profilePath != "" {
		opts.Profiles, err = profiler.ReadProfilesFile(*profilePath)
		if err != nil {
			fmt.Fprintln(stderr, "chameleon-sites:", err)
			return exitBadInput
		}
		opts.SnapshotFile = *profilePath
	}

	res, err := analysis.Analyze(*dir, patterns, opts)
	if err != nil {
		if le, ok := err.(*analysis.LoadError); ok {
			for _, p := range le.Problems {
				fmt.Fprintln(stderr, "chameleon-sites:", p)
			}
			return exitBadInput
		}
		fmt.Fprintln(stderr, "chameleon-sites:", err)
		return exitFailure
	}

	if *manifestPath != "" {
		if err := analysis.WriteManifestFile(*manifestPath, res.Manifest()); err != nil {
			fmt.Fprintln(stderr, "chameleon-sites:", err)
			return exitFailure
		}
	}

	nErrors, warnings, infos := 0, 0, 0
	for _, d := range res.Diagnostics {
		switch d.Severity {
		case analysis.SevError:
			nErrors++
		case analysis.SevWarning:
			warnings++
		default:
			infos++
		}
	}
	if *jsonOut {
		diags := res.Diagnostics
		if !*all {
			diags = filterInfo(diags)
		}
		if diags == nil {
			diags = []analysis.Diagnostic{} // always an array, never null
		}
		b, err := json.MarshalIndent(diags, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "chameleon-sites:", err)
			return exitFailure
		}
		fmt.Fprintln(stdout, string(b))
	} else {
		for _, d := range res.Diagnostics {
			if d.Severity == analysis.SevInfo && !*all {
				continue
			}
			fmt.Fprintln(stdout, d)
		}
		safe := 0
		for _, s := range res.Sites {
			if s.Safe {
				safe++
			}
		}
		fmt.Fprintf(stdout, "%d packages: %d sites (%d safe): %d errors, %d warnings, %d infos\n",
			len(res.Packages), len(res.Sites), safe, nErrors, warnings, infos)
	}
	if nErrors > 0 || (*strict && warnings > 0) {
		return exitFailure
	}
	return exitOK
}

// filterInfo drops info-severity diagnostics.
func filterInfo(diags []analysis.Diagnostic) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, d := range diags {
		if d.Severity != analysis.SevInfo {
			out = append(out, d)
		}
	}
	return out
}

func usage(w io.Writer) int {
	fmt.Fprint(w, `usage: chameleon-sites [flags] [packages]

Discovers chameleon collection allocation sites, classifies each as safe
or unsafe for ahead-of-time specialization, and cross-checks the site
manifest against rule sets and profile snapshots (docs/ANALYSIS.md).

flags:
  -dir D           directory to resolve package patterns in (default ".")
  -manifest F      write the versioned site manifest JSON to F
  -json            emit diagnostics as a JSON array
  -all             print info-level findings too (classification facts)
  -strict          exit 1 on warnings, not only errors
  -rules F         cross-check a rule file (S009/S010)
  -builtin         cross-check the shipped builtin rule set
  -extended        cross-check the shipped extended rule set
  -profile F       cross-check a profile snapshot (S011)

exit codes:
  0  success (no error-severity diagnostics)
  1  runtime failure, or error-severity diagnostics (warnings too with -strict)
  2  usage error
  3  an input does not load (packages, a rules file that does not read,
     parse or check, or the snapshot)
`)
	return exitUsage
}
