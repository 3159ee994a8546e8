// Command chameleon-merge is the fleet aggregation tool: it combines
// profile snapshots from many processes into one fleet profile
// (internal/fleet, docs/FLEET.md), and in -watch mode runs the
// self-healing ingest service that keeps doing so continuously —
// per-source health ledger, quarantine with doubling backoff, periodic
// re-advise, optional HTTP push endpoint.
//
//	chameleon-merge a.json b.json c.json            # merge, print report
//	chameleon-merge -o fleet.json *.json            # write the fleet snapshot
//	chameleon-merge -advise *.json                  # advisor over the aggregate
//	chameleon-merge -watch dir -interval 2s         # ingest service
//	chameleon-merge -watch dir -http :8377          # + push endpoint/ledger API
//	chameleon-merge -watch dir -rounds 20 -inject -assert-recovery
//	                                                # fault-injection soak (CI)
//
// Corrupt or torn inputs never abort a merge: damage degrades the source
// it came from, per record, and every drop is accounted in the report.
//
// Exit codes form a contract scripts can dispatch on:
//
//	0  success
//	1  runtime failure (unreadable directory, write failure, every source
//	   dead), or a -rules file that does not read, parse or check
//	2  usage error, including -rules with -extended
//	3  -assert-recovery failed: a source wedged in quarantine, recovery
//	   never happened, or the service stopped merging
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chameleon/internal/advisor"
	"chameleon/internal/faults"
	"chameleon/internal/fleet"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
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

	watch := fs.String("watch", "", "ingest service mode: watch this snapshot directory")
	interval := fs.Duration("interval", time.Second, "watch: seconds between ingest rounds")
	rounds := fs.Int("rounds", 0, "watch: stop after N rounds (0 = run until interrupted)")
	httpAddr := fs.String("http", "", "watch: serve POST /ingest/{source} and GET /ledger on this address")
	ledgerOut := fs.String("ledger-out", "", "watch: write the final health ledger as JSON to this file")
	failLimit := fs.Int("fail-limit", 0, "watch: consecutive hard failures before quarantine (0 = default 3)")
	backoff := fs.Int("backoff", 0, "watch: initial quarantine length in rounds, doubling per quarantine (0 = default 4)")
	stale := fs.Int("stale-rounds", 0, "watch: rounds without a fresh delivery before a source goes stale (0 = never)")
	redeliver := fs.Bool("redeliver", false, "watch: re-read sources every round even when unchanged")
	inject := fs.Bool("inject", false, "watch: arm fault hooks by source name (*torn*, *flaky*, *outage*); implies -redeliver")
	assertRecovery := fs.Bool("assert-recovery", false, "watch: exit 3 unless a quarantine happened, recovered, and no source ended wedged")
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

	if *watch != "" {
		if fs.NArg() > 0 {
			fmt.Fprintln(stderr, "chameleon-merge: -watch takes no snapshot arguments")
			return exitUsage
		}
		return runWatch(watchConfig{
			dir:            *watch,
			interval:       *interval,
			rounds:         *rounds,
			httpAddr:       *httpAddr,
			ledgerOut:      *ledgerOut,
			out:            *out,
			merge:          mergeOpts,
			advise:         advOpts,
			failLimit:      *failLimit,
			backoff:        *backoff,
			stale:          *stale,
			redeliver:      *redeliver || *inject,
			inject:         *inject,
			assertRecovery: *assertRecovery,
		}, stdout, stderr)
	}

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

type watchConfig struct {
	dir            string
	interval       time.Duration
	rounds         int
	httpAddr       string
	ledgerOut      string
	out            string
	merge          fleet.Options
	advise         advisor.Options
	failLimit      int
	backoff        int
	stale          int
	redeliver      bool
	inject         bool
	assertRecovery bool
}

// runWatch is the ingest-service mode.
func runWatch(cfg watchConfig, stdout, stderr io.Writer) int {
	if info, err := os.Stat(cfg.dir); err != nil || !info.IsDir() {
		fmt.Fprintf(stderr, "chameleon-merge: -watch %s: not a directory\n", cfg.dir)
		return exitFailure
	}
	if cfg.inject {
		armInjection(cfg.dir, stderr)
		defer faults.Disarm()
	}

	w := fleet.NewWatcher(fleet.IngestOptions{
		Dir:          cfg.dir,
		Merge:        cfg.merge,
		Advise:       cfg.advise,
		FailLimit:    cfg.failLimit,
		BackoffTicks: cfg.backoff,
		StaleTicks:   cfg.stale,
		Redeliver:    cfg.redeliver,
	})

	var srv *http.Server
	if cfg.httpAddr != "" {
		ln, err := net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			fmt.Fprintln(stderr, "chameleon-merge:", err)
			return exitFailure
		}
		srv = &http.Server{Handler: w.Handler()}
		go func() { _ = srv.Serve(ln) }()
		fmt.Fprintf(stderr, "chameleon-merge: ingest endpoint on %s (POST /ingest/{source}, GET /ledger)\n", ln.Addr())
		defer srv.Close()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	// Soak bookkeeping for -assert-recovery.
	sawQuarantine, sawRecovery := false, false
	everQuarantined := make(map[string]bool)
	emptyRounds, totalRounds := 0, 0
	var last fleet.TickResult

	tick := func() bool {
		res, err := w.Tick()
		if err != nil {
			fmt.Fprintln(stderr, "chameleon-merge:", err)
			return false
		}
		last = res
		totalRounds++
		if res.Merged == nil {
			emptyRounds++
		}
		var states []string
		for _, s := range res.Ledger.Sources {
			if s.State == "quarantined" {
				sawQuarantine = true
				everQuarantined[s.Name] = true
			} else if everQuarantined[s.Name] && s.State == "healthy" {
				sawRecovery = true
			}
			states = append(states, fmt.Sprintf("%s=%s", strings.TrimSuffix(s.Name, ".json"), s.State))
		}
		fmt.Fprintf(stdout, "round %d: %d context(s), %d conflicted, %d published; %s\n",
			res.Tick, res.Contexts, res.Conflicted, res.Published, strings.Join(states, " "))
		return true
	}

	timer := time.NewTicker(cfg.interval)
	defer timer.Stop()
	if !tick() { // round 1 immediately; then on the interval
		return exitFailure
	}
loop:
	for cfg.rounds == 0 || totalRounds < cfg.rounds {
		select {
		case <-stop:
			fmt.Fprintln(stderr, "chameleon-merge: interrupted")
			break loop
		case <-timer.C:
			if !tick() {
				return exitFailure
			}
		}
	}

	if cfg.ledgerOut != "" {
		b, err := json.MarshalIndent(w.Ledger(), "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.ledgerOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "chameleon-merge:", err)
			return exitFailure
		}
		fmt.Fprintf(stderr, "chameleon-merge: health ledger written to %s\n", cfg.ledgerOut)
	}
	if cfg.out != "" && last.Merged != nil {
		if err := profiler.WriteProfilesFile(cfg.out, last.Merged.Profiles); err != nil {
			fmt.Fprintln(stderr, "chameleon-merge:", err)
			return exitFailure
		}
		fmt.Fprintf(stderr, "chameleon-merge: fleet snapshot written to %s\n", cfg.out)
	}

	if cfg.assertRecovery {
		var wedged []string
		for _, s := range w.Ledger().Sources {
			if s.State == "quarantined" {
				wedged = append(wedged, s.Name)
			}
		}
		switch {
		case !sawQuarantine:
			fmt.Fprintln(stderr, "chameleon-merge: ASSERT: no source was ever quarantined (faults did not bite)")
			return exitAssert
		case !sawRecovery:
			fmt.Fprintln(stderr, "chameleon-merge: ASSERT: no quarantined source ever recovered")
			return exitAssert
		case len(wedged) > 0:
			fmt.Fprintf(stderr, "chameleon-merge: ASSERT: source(s) ended wedged in quarantine: %s\n", strings.Join(wedged, ", "))
			return exitAssert
		case emptyRounds > 0:
			fmt.Fprintf(stderr, "chameleon-merge: ASSERT: %d of %d rounds merged nothing\n", emptyRounds, totalRounds)
			return exitAssert
		}
		fmt.Fprintf(stderr, "chameleon-merge: recovery asserted over %d rounds (quarantine observed and healed, no wedge)\n", totalRounds)
	}
	return exitOK
}

// armInjection arms per-source ingest faults keyed by file name: any
// source whose name contains "torn" delivers a 60%% prefix, "flaky"
// alternates valid and corrupt deliveries, "outage" delivers garbage for
// its first three reads and then goes quiet.
func armInjection(dir string, stderr io.Writer) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var hooks []func(string, []byte) ([]byte, bool)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		switch {
		case strings.Contains(name, "torn"):
			hooks = append(hooks, faults.TornPrefix(name, 0.6))
			fmt.Fprintf(stderr, "chameleon-merge: fault armed: %s delivers torn prefixes\n", name)
		case strings.Contains(name, "flaky"):
			hooks = append(hooks, faults.AlternateCorrupt(name))
			fmt.Fprintf(stderr, "chameleon-merge: fault armed: %s alternates valid/corrupt\n", name)
		case strings.Contains(name, "outage"):
			hooks = append(hooks, faults.CorruptFirstN(name, 3))
			fmt.Fprintf(stderr, "chameleon-merge: fault armed: %s starts with a 3-delivery outage\n", name)
		}
	}
	if len(hooks) == 0 {
		fmt.Fprintln(stderr, "chameleon-merge: -inject: no *torn*/*flaky*/*outage* sources found; nothing armed")
		return
	}
	faults.Arm(&faults.Plan{IngestSnapshot: func(src string, data []byte) ([]byte, bool) {
		for _, h := range hooks {
			if m, fired := h(src, data); fired {
				return m, true
			}
		}
		return data, false
	}})
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  chameleon-merge [flags] <snapshot.json>...     merge snapshots, print report
  chameleon-merge -watch <dir> [flags]           run the ingest service

merge flags:
  -o file            write the merged fleet snapshot (v3 format)
  -advise            run the advisor over the aggregate (-rules/-extended/-top)
  -json              machine-readable report
  -min-evidence N    per-source evidence to join skew detection (default 8)
  -min-confidence F  agreement threshold below which a context conflicts (default 0.7)

watch flags:
  -interval d        time between ingest rounds (default 1s)
  -rounds N          stop after N rounds (0 = until interrupted)
  -http addr         POST /ingest/{source} + GET /ledger endpoint
  -ledger-out file   write the final health ledger as JSON
  -fail-limit N      hard failures before quarantine (default 3)
  -backoff N         initial quarantine rounds, doubling (default 4)
  -stale-rounds N    rounds without delivery before stale (0 = never)
  -redeliver         re-read unchanged sources every round
  -inject            arm *torn*/*flaky*/*outage* fault hooks (soak mode)
  -assert-recovery   exit 3 unless quarantine occurred, healed, and nothing wedged
`)
}
