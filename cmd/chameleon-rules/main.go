// Command chameleon-rules is the toolchain for the Fig. 4 selection-rule
// language:
//
//	chameleon-rules fmt   <rules.cham>                 # parse + pretty-print
//	chameleon-rules check <rules.cham> [-param X=32]   # vocabulary checks
//	chameleon-rules vet   <rules.cham> [-json]         # semantic static analysis
//	chameleon-rules eval  <rules.cham> -profile p.json # offline rule run
//	chameleon-rules explain <rules.cham> -profile p.json -context substr
//	                                                   # trace why rules fire or not
//	chameleon-rules builtin [-extended]                # print the shipped sets
//
// The eval subcommand consumes a profile snapshot written by
// `chameleon -profile-out` and prints the suggestion report without
// re-running the program — the offline half of the paper's workflow.
//
// Exit codes form a contract scripts can dispatch on:
//
//	0  success
//	1  runtime failure, or error-severity vet diagnostics
//	2  usage error
//	3  the rules file does not parse
//	4  the rules parse but fail vocabulary checks
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"strconv"
	"strings"

	"chameleon/internal/advisor"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
)

const (
	exitOK      = 0
	exitFailure = 1 // runtime failure, or error-severity vet findings
	exitUsage   = 2
	exitParse   = 3 // the rules file does not parse
	exitVocab   = 4 // the rules parse but fail vocabulary checks
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches a full command line and reports the process exit status.
// It is the testable entry point: main only binds it to os.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		return usage(stderr)
	}
	switch args[0] {
	case "fmt":
		return cmdFmt(args[1:], stdout, stderr)
	case "check":
		return cmdCheck(args[1:], stdout, stderr)
	case "vet":
		return cmdVet(args[1:], stdout, stderr)
	case "eval":
		return cmdEval(args[1:], stdout, stderr)
	case "explain":
		return cmdExplain(args[1:], stdout, stderr)
	case "builtin":
		return cmdBuiltin(args[1:], stdout, stderr)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return exitOK
	default:
		fmt.Fprintf(stderr, "chameleon-rules: unknown command %q\n", args[0])
		return usage(stderr)
	}
}

func usage(w io.Writer) int {
	fmt.Fprint(w, `usage: chameleon-rules <command> [arguments]

commands:
  fmt     <rules.cham> [-w]            parse and pretty-print
  check   <rules.cham> [-param N=V]    parse and check the vocabulary
  vet     <rules.cham>|-builtin|-extended [-json] [-strict] [-param N=V]
                                       semantic static analysis (see docs/ANALYSIS.md)
  eval    <rules.cham> -profile p.json [-top K] [-min-potential B]
                                       offline suggestion report from a snapshot
  explain <rules.cham> -profile p.json [-context substr] [-fired]
                                       trace why rules fire or not
  builtin [-extended]                  print the shipped rule sets

exit codes:
  0  success
  1  runtime failure, or error-severity vet diagnostics
  2  usage error
  3  the rules file does not parse
  4  the rules parse but fail vocabulary checks
`)
	return exitUsage
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "chameleon-rules:", err)
	return exitFailure
}

// paramFlags collects repeated -param NAME=VALUE flags on top of the
// default environment.
type paramFlags struct{ params rules.Params }

func (p *paramFlags) String() string { return fmt.Sprint(p.params) }

func (p *paramFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected NAME=VALUE, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("bad value in %q: %v", s, err)
	}
	p.params[strings.TrimSpace(name)] = v
	return nil
}

func newParams() *paramFlags { return &paramFlags{params: maps.Clone(rules.DefaultParams)} }

// splitFile accepts the rules file either as the leading argument
// ("eval rules.cham -profile p.json") or as the trailing positional after
// flags ("eval -profile p.json rules.cham"); Go's flag package handles the
// latter natively, so only the leading form needs peeling off.
func splitFile(args []string) (file string, rest []string) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[0], args[1:]
	}
	return "", args
}

// loadRules reads, parses and checks a rules file, reporting the exit
// status that tells an unreadable file (1), one that does not parse (3)
// and one that fails vocabulary checks (4) apart.
func loadRules(path string, params rules.Params, stderr io.Writer) (*rules.RuleSet, int) {
	rs, err := rules.LoadFile(path, params)
	return rs, loadStatus(err, stderr)
}

// loadStatus maps a rules.LoadFile error to its exit status.
func loadStatus(err error, stderr io.Writer) int {
	if err == nil {
		return exitOK
	}
	fmt.Fprintln(stderr, "chameleon-rules:", err)
	var checkErr *rules.CheckError
	var parseErr *rules.Error
	switch {
	case errors.As(err, &checkErr):
		return exitVocab
	case errors.As(err, &parseErr):
		return exitParse
	}
	return exitFailure
}

func cmdFmt(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fmt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	write := fs.Bool("w", false, "write the formatted output back to the file")
	path, rest := splitFile(args)
	if err := fs.Parse(rest); err != nil {
		return exitUsage
	}
	if path == "" {
		path = fs.Arg(0)
	}
	if path == "" {
		fmt.Fprintln(stderr, "chameleon-rules: fmt: expected one rules file")
		return exitUsage
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return fail(stderr, err)
	}
	rs, err := rules.Parse(string(src))
	if err != nil {
		fmt.Fprintln(stderr, "chameleon-rules:", err)
		return exitParse
	}
	out := rules.Print(rs)
	if *write {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			return fail(stderr, err)
		}
		return exitOK
	}
	fmt.Fprint(stdout, out)
	return exitOK
}

func cmdCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	params := newParams()
	fs.Var(params, "param", "bind a rule parameter NAME=VALUE (repeatable)")
	path, rest := splitFile(args)
	if err := fs.Parse(rest); err != nil {
		return exitUsage
	}
	if path == "" {
		path = fs.Arg(0)
	}
	if path == "" {
		fmt.Fprintln(stderr, "chameleon-rules: check: expected one rules file")
		return exitUsage
	}
	rs, status := loadRules(path, params.params, stderr)
	if status != exitOK {
		return status
	}
	// Semantic advisories ride along on stderr but do not affect the
	// status: check answers "is the vocabulary valid", vet answers "do the
	// rules make sense" and owns the failing exit codes.
	for _, d := range rs.Diagnostics() {
		fmt.Fprintln(stderr, d)
	}
	fmt.Fprintf(stdout, "%d rules OK; parameters referenced: %v\n", len(rs.Rules), rules.ParamsOf(rs))
	return exitOK
}

// cmdVet runs the semantic analyzer over a rules file or a shipped set.
// Vocabulary errors gate the analysis: Vet's verdicts assume every name
// resolves, so an unknown op or unbound parameter exits 4 before vetting.
func cmdVet(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	strict := fs.Bool("strict", false, "exit 1 on warnings, not only errors")
	builtin := fs.Bool("builtin", false, "vet the shipped builtin rule set")
	extended := fs.Bool("extended", false, "vet the shipped extended rule set")
	params := newParams()
	fs.Var(params, "param", "bind a rule parameter NAME=VALUE (repeatable)")
	path, rest := splitFile(args)
	if err := fs.Parse(rest); err != nil {
		return exitUsage
	}
	if path == "" {
		path = fs.Arg(0)
	}
	rs, label, err := rules.Choose(path, *builtin, *extended, params.params)
	switch {
	case errors.Is(err, rules.ErrRuleSources):
		fmt.Fprintln(stderr, "chameleon-rules: vet:", err)
		return exitUsage
	case err != nil:
		return loadStatus(err, stderr)
	case rs == nil:
		fmt.Fprintln(stderr, "chameleon-rules: vet: expected a rules file (or -builtin / -extended)")
		return exitUsage
	}
	diags := rs.Diagnostics()
	nErrors, warnings := 0, 0
	for _, d := range diags {
		if d.Severity == rules.SevError {
			nErrors++
		} else {
			warnings++
		}
	}
	if *jsonOut {
		if diags == nil {
			diags = []rules.Diagnostic{} // always an array, never null
		}
		b, err := json.MarshalIndent(diags, "", "  ")
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintln(stdout, string(b))
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		fmt.Fprintf(stdout, "%s: %d rules: %d errors, %d warnings\n",
			label, len(rs.Rules), nErrors, warnings)
	}
	if nErrors > 0 || (*strict && warnings > 0) {
		return exitFailure
	}
	return exitOK
}

func cmdEval(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	profilePath := fs.String("profile", "", "profile snapshot JSON (from chameleon -profile-out)")
	top := fs.Int("top", 10, "show the top-K contexts")
	minPotential := fs.Int64("min-potential", 0, "suppress space replacements below this potential (bytes; -1 disables)")
	params := newParams()
	fs.Var(params, "param", "bind a rule parameter NAME=VALUE (repeatable)")
	path, rest := splitFile(args)
	if err := fs.Parse(rest); err != nil {
		return exitUsage
	}
	if path == "" {
		path = fs.Arg(0)
	}
	if path == "" || *profilePath == "" {
		fmt.Fprintln(stderr, "chameleon-rules: eval: expected a rules file and -profile snapshot")
		return exitUsage
	}
	rs, status := loadRules(path, params.params, stderr)
	if status != exitOK {
		return status
	}
	// Semantic findings (shadowed or never-firing rules skew the
	// suggestions) reach the user through the report itself: Advise
	// copies the set's findings and Format leads with them.
	profiles, err := profiler.ReadProfilesFile(*profilePath)
	if err != nil {
		return fail(stderr, err)
	}
	rep, err := advisor.Advise(profiles, advisor.Options{
		Rules:        rs,
		Top:          *top,
		MinPotential: *minPotential,
	})
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprint(stdout, rep.Format())
	return exitOK
}

// cmdExplain traces rule evaluation against a profiled context: why each
// rule fired or did not.
func cmdExplain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	profilePath := fs.String("profile", "", "profile snapshot JSON (from chameleon -profile-out)")
	ctxSubstr := fs.String("context", "", "substring selecting the context(s) to explain")
	firedOnly := fs.Bool("fired", false, "show only rules that fired")
	params := newParams()
	fs.Var(params, "param", "bind a rule parameter NAME=VALUE (repeatable)")
	path, rest := splitFile(args)
	if err := fs.Parse(rest); err != nil {
		return exitUsage
	}
	if path == "" {
		path = fs.Arg(0)
	}
	if path == "" || *profilePath == "" {
		fmt.Fprintln(stderr, "chameleon-rules: explain: expected a rules file and -profile snapshot")
		return exitUsage
	}
	rs, status := loadRules(path, params.params, stderr)
	if status != exitOK {
		return status
	}
	profiles, err := profiler.ReadProfilesFile(*profilePath)
	if err != nil {
		return fail(stderr, err)
	}
	shown := 0
	for _, p := range profiles {
		if *ctxSubstr != "" && !strings.Contains(p.Context.String(), *ctxSubstr) {
			continue
		}
		fmt.Fprintf(stdout, "context: %s (declared %s, avgMaxSize %.1f, potential %d)\n",
			p.Context, p.Declared, p.MaxSizeAvg, p.Potential())
		for _, r := range rs.Rules {
			ex := rules.Explain(r, p, rs.Params())
			if *firedOnly && !ex.Fired {
				continue
			}
			if !ex.SrcMatched && *ctxSubstr == "" {
				continue // keep unfiltered output readable
			}
			fmt.Fprint(stdout, ex.String())
		}
		fmt.Fprintln(stdout)
		shown++
	}
	if shown == 0 {
		fmt.Fprintln(stderr, "chameleon-rules: no contexts matched")
	}
	return exitOK
}

func cmdBuiltin(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("builtin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	extended := fs.Bool("extended", false, "include the extension rules (SinglyLinkedList, open addressing)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *extended {
		fmt.Fprint(stdout, rules.Print(rules.Extended()))
		return exitOK
	}
	fmt.Fprint(stdout, rules.Print(rules.Builtin()))
	return exitOK
}
