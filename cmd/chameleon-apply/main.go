// Command chameleon-apply is the ahead-of-time specializer: it joins a
// profile/decision snapshot (chameleon -profile-out) against the
// allocation sites of a Go program (the chameleon-sites analysis,
// re-run in process) and rewrites every safe, decided site — fully
// decided sites move to the concrete NewFixed* constructors and stop
// profiling; capacity-only decisions keep their profiled constructor
// with an updated Cap. Unsafe, unlabeled, forced, and undecided sites
// are left untouched and reported with the reason (docs/SPECIALIZE.md).
//
//	chameleon-apply -profile p.json ./...            # classify, print plan
//	chameleon-apply -profile p.json -diff ./...      # print the unified diff
//	chameleon-apply -profile p.json -write ./...     # rewrite in place
//	chameleon-apply -profile p.json -verify pmd -write ./...
//	                                                 # rewrite only if the
//	                                                 # rewritten tree's checksum
//	                                                 # matches the reference run
//
// Exit codes form a contract scripts can dispatch on, aligned with
// chameleon-sites and chameleon-rules:
//
//	0  success
//	1  runtime failure, stale snapshot contexts, or a verify mismatch
//	2  usage error
//	3  an input does not load (packages, snapshot, manifest, or a rules
//	   file that does not read, parse or check)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"chameleon/internal/analysis"
	"chameleon/internal/apply"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
)

const (
	exitOK       = 0
	exitFailure  = 1 // runtime failure, stale snapshot, verify mismatch
	exitUsage    = 2
	exitBadInput = 3 // packages, snapshot, rules, or manifest fail to load
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes a full command line and reports the process exit status.
// It is the testable entry point: main only binds it to os.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chameleon-apply", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory to resolve package patterns in")
	profilePath := fs.String("profile", "", "decision/profile snapshot to apply (required)")
	rulesFile := fs.String("rules", "", "rule file the advisor evaluates")
	builtin := fs.Bool("builtin", false, "use the shipped builtin rule set (the default)")
	extended := fs.Bool("extended", false, "use the shipped extended rule set")
	minPotential := fs.Int64("min-potential", -1, "advisor space-potential gate in bytes; -1 disables it (source rewrites are churn-motivated too), 0 selects the advisor default")
	manifestPath := fs.String("manifest", "", "gate rewrites against a chameleon-sites manifest; divergence is exit 3")
	diff := fs.Bool("diff", false, "print the rewrite as a unified diff")
	write := fs.Bool("write", false, "write rewritten files in place (temp+rename)")
	verify := fs.String("verify", "", "run this workload against the rewritten tree and require its checksum to match the reference run")
	scale := fs.Int("scale", 0, "workload scale for -verify (0 = the workload default)")
	all := fs.Bool("all", false, "list skipped sites too, with reasons")
	allowStale := fs.Bool("allow-stale", false, "tolerate snapshot contexts that join no site (default: exit 1)")
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *profilePath == "" {
		fmt.Fprintln(stderr, "chameleon-apply: -profile is required")
		usage(stderr)
		return exitUsage
	}

	opts := apply.Options{Dir: *dir, Patterns: patterns, MinPotential: *minPotential}

	rs, _, err := rules.Choose(*rulesFile, *builtin, *extended, rules.DefaultParams)
	if err != nil {
		fmt.Fprintln(stderr, "chameleon-apply:", err)
		if errors.Is(err, rules.ErrRuleSources) {
			return exitUsage
		}
		return exitBadInput
	}
	opts.Rules = rs // nil: the builtin set

	opts.Profiles, err = profiler.ReadProfilesFile(*profilePath)
	if err != nil {
		fmt.Fprintln(stderr, "chameleon-apply:", err)
		return exitBadInput
	}

	if *manifestPath != "" {
		m, err := analysis.ReadManifestFile(*manifestPath)
		if err != nil {
			fmt.Fprintln(stderr, "chameleon-apply:", err)
			return exitBadInput
		}
		opts.Manifest = m
	}

	res, err := apply.Run(opts)
	if err != nil {
		if le, ok := err.(*analysis.LoadError); ok {
			for _, p := range le.Problems {
				fmt.Fprintln(stderr, "chameleon-apply:", p)
			}
			return exitBadInput
		}
		fmt.Fprintln(stderr, "chameleon-apply:", err)
		var mm *apply.ManifestMismatchError
		if errors.As(err, &mm) {
			return exitBadInput
		}
		return exitFailure
	}

	// A decided context that joins no site means the snapshot and the
	// tree disagree — rewriting against it would apply someone else's
	// decisions. Refuse before any output side effect.
	if len(res.Stale) > 0 {
		for _, label := range res.Stale {
			fmt.Fprintf(stderr, "chameleon-apply: stale snapshot context %s joins no allocation site\n", label)
		}
		if !*allowStale {
			fmt.Fprintln(stderr, "chameleon-apply: refusing to rewrite from a stale snapshot (-allow-stale to override)")
			return exitFailure
		}
	}

	if *verify != "" {
		v, err := apply.Verify(*dir, res.Files, *verify, *scale)
		if err != nil {
			fmt.Fprintln(stderr, "chameleon-apply:", err)
			return exitFailure
		}
		fmt.Fprintln(stdout, v)
		if !v.OK() {
			fmt.Fprintln(stderr, "chameleon-apply: rewritten tree diverges from the reference run; not writing")
			return exitFailure
		}
	}

	switch {
	case *diff:
		fmt.Fprint(stdout, apply.Diff(*dir, res.Files))
	case !*write:
		listDecisions(stdout, res, *all)
	}
	if *write {
		if err := apply.WriteFiles(res.Files); err != nil {
			fmt.Fprintln(stderr, "chameleon-apply:", err)
			return exitFailure
		}
	}
	if !*diff {
		fmt.Fprintf(stdout, "%d sites: %d replaced, %d retuned, %d skipped; %d files rewritten\n",
			len(res.Sites), res.Replaced(), res.Retuned(), res.Skipped(), len(res.Files))
	}
	return exitOK
}

// listDecisions prints one line per rewrite decision (and per skip with
// -all), in source order.
func listDecisions(w io.Writer, res *apply.Result, all bool) {
	for _, d := range res.Sites {
		if !d.Status.Rewrites() && !all {
			continue
		}
		fmt.Fprintf(w, "%s: %s: %s\n", d.Site.ID, d.Status, d.Reason)
	}
}

func usage(w io.Writer) int {
	fmt.Fprint(w, `usage: chameleon-apply -profile F [flags] [packages]

Rewrites safe, decided allocation sites ahead of time from a
profile/decision snapshot: replacements move to the concrete NewFixed*
constructors (profiling removed), capacity decisions update Cap in place
(docs/SPECIALIZE.md).

flags:
  -dir D            directory to resolve package patterns in (default ".")
  -profile F        decision/profile snapshot to apply (required)
  -rules F          rule file the advisor evaluates
  -builtin          use the shipped builtin rule set (the default)
  -extended         use the shipped extended rule set
  -min-potential N  advisor space gate in bytes; -1 disables (default), 0 = advisor default
  -manifest F       gate rewrites against a chameleon-sites manifest
  -diff             print the rewrite as a unified diff
  -write            write rewritten files in place (temp+rename)
  -verify W         require the rewritten tree to reproduce workload W's checksum
  -scale N          workload scale for -verify (0 = workload default)
  -all              list skipped sites too, with reasons
  -allow-stale      tolerate snapshot contexts that join no site

exit codes:
  0  success
  1  runtime failure, stale snapshot contexts, or a verify mismatch
  2  usage error
  3  an input does not load (packages, snapshot, manifest, or a rules
     file that does not read, parse or check)
`)
	return exitUsage
}
