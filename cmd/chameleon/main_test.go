package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"stray"},
		{"-mode", "bogus"},
		{"-workload", "nosuch"},
		{"-variant", "bogus"},
		{"-workload", "pmd", "-workers", "4"},
		{"-workload", "pmd", "-rules", "rules.cham", "-extended"},
	} {
		var out, errb strings.Builder
		if got := run(args, &out, &errb); got != exitUsage {
			t.Errorf("%v: exit %d, want %d\nstderr: %s", args, got, exitUsage, errb.String())
		}
		if errb.Len() == 0 {
			t.Errorf("%v: no diagnostic on stderr", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: usage error wrote a report:\n%s", args, out.String())
		}
	}
}

// A rules file that does not read or fails check fails the command
// before the run.
func TestFailureExit(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "missing.cham")}
	for i, src := range failingCheck {
		path := filepath.Join(dir, fmt.Sprintf("check%d.cham", i))
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	for _, path := range paths {
		var out, errb strings.Builder
		if got := run([]string{"-workload", "pmd", "-scale", "5", "-rules", path}, &out, &errb); got != exitFailure {
			t.Errorf("%s: exit %d, want %d\nstderr: %s", path, got, exitFailure, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s: a failed rules file still ran the workload:\n%s", path, out.String())
		}
	}
}

// A rules file with error-severity vet findings stops the command before
// the run: every finding goes to stderr, as chameleon-rules vet prints it,
// and nothing to stdout.
func TestRulesVetGate(t *testing.T) {
	golden, err := os.ReadFile("../chameleon-rules/testdata/vet_buggy.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	var want strings.Builder
	for _, d := range lines[:len(lines)-1] { // the last line is vet's summary
		fmt.Fprintln(&want, "chameleon: rule vet:", d)
	}
	var out, errb strings.Builder
	if got := run([]string{"-workload", "tvla", "-scale", "20", "-rules", "../../examples/badrules/buggy.cham"}, &out, &errb); got != exitFailure {
		t.Errorf("exit %d, want %d", got, exitFailure)
	}
	if errb.String() != want.String() {
		t.Errorf("stderr:\n--- got ---\n%s--- want ---\n%s", errb.String(), want.String())
	}
	if out.Len() != 0 {
		t.Errorf("a rules file failing vet still ran the workload:\n%s", out.String())
	}
}

// failingCheck holds rule files that parse but fail check: an unknown
// operation and an unbound parameter, each on a srcType pmd allocates
// (ArrayList) and on one it does not (LinkedHashSet).
var failingCheck = []string{
	"ArrayList : #frob > 1 -> LinkedList\n",
	"LinkedHashSet : #frob > 1 -> HashSet\n",
	"ArrayList : #add > Q -> LinkedList\n",
	"LinkedHashSet : #add > Q -> HashSet\n",
}

func TestListAndPrintRules(t *testing.T) {
	var out, errb strings.Builder
	if got := run([]string{"-list"}, &out, &errb); got != exitOK {
		t.Fatalf("-list: exit %d, stderr %s", got, errb.String())
	}
	for _, name := range []string{"tvla", "bloat", "pmd"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
	out.Reset()
	if got := run([]string{"-print-rules"}, &out, &errb); got != exitOK || out.Len() == 0 {
		t.Fatalf("-print-rules: exit %d, %d bytes of output", got, out.Len())
	}
}

// TestBudgetHealthBlock: under a context budget the health block reports
// the one enforcement layer — admission — and the overflow context holds
// exactly one allocation per denied admission. The budget never changes
// the workload's checksum.
func TestBudgetHealthBlock(t *testing.T) {
	const budget = 16
	healthOut := filepath.Join(t.TempDir(), "health.json")
	bounded := runOK(t, "-workload", "contextstorm", "-scale", "20", "-top", "1",
		"-max-contexts", fmt.Sprint(budget), "-health-out", healthOut)
	unbounded := runOK(t, "-workload", "contextstorm", "-scale", "20", "-top", "1")
	if got, want := field(t, bounded, "run complete:"), field(t, unbounded, "run complete:"); got != want {
		t.Fatalf("budget changed the result: %q, want %q", got, want)
	}
	if strings.Contains(bounded, "eviction") {
		t.Fatalf("health block still reports evictions:\n%s", bounded)
	}

	var max, interned, tracked, live int
	if _, err := fmt.Sscanf(field(t, bounded, "context budget:"),
		"context budget: %d max, %d interned, %d tracked by profiler, %d live instances",
		&max, &interned, &tracked, &live); err != nil {
		t.Fatalf("parsing budget line: %v\n%s", err, bounded)
	}
	if max != budget || interned > budget+1 || tracked > interned {
		t.Fatalf("budget line: max=%d interned=%d tracked=%d, want max=%d, tracked <= interned <= %d",
			max, interned, tracked, budget, budget+1)
	}
	var denied, overflowAllocs int64
	if _, err := fmt.Sscanf(field(t, bounded, "overflow:"),
		"overflow: %d denied admissions, %d allocs attributed to (overflow)",
		&denied, &overflowAllocs); err != nil {
		t.Fatalf("parsing overflow line: %v\n%s", err, bounded)
	}
	if denied == 0 || overflowAllocs != denied {
		t.Fatalf("overflow line: %d denied admissions, %d overflow allocs; want equal and nonzero", denied, overflowAllocs)
	}

	data, err := os.ReadFile(healthOut)
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Budget map[string]json.Number `json:"budget"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatalf("health snapshot: %v\n%s", err, data)
	}
	if _, ok := h.Budget["evictions"]; ok {
		t.Fatalf("health snapshot still carries evictions:\n%s", data)
	}
	if h.Budget["overflowAllocs"] != h.Budget["tableOverflowAdmissions"] {
		t.Fatalf("health snapshot: overflowAllocs %s != tableOverflowAdmissions %s",
			h.Budget["overflowAllocs"], h.Budget["tableOverflowAdmissions"])
	}
}

// runOK runs a command line that must succeed and returns its stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb strings.Builder
	if got := run(args, &out, &errb); got != exitOK {
		t.Fatalf("%v: exit %d\nstderr: %s", args, got, errb.String())
	}
	return out.String()
}

// field returns the trimmed output line that starts with prefix.
func field(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if line = strings.TrimSpace(line); strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("no %q line in output:\n%s", prefix, out)
	return ""
}

// TestOnlineReport: phaseshift baits the guarded selector, so an -online
// run reports decisions, verifications and rollbacks, and every
// per-context state line names a decision status. Backoff prints only for
// quarantined contexts; a re-decided context's rollback reason is marked
// as the previous decision's.
func TestOnlineReport(t *testing.T) {
	// At scale 50 the rolled-back contexts are still quarantined; by scale
	// 100 they have been re-decided, so their backoff and rollback reason
	// belong to the previous decision.
	for _, scale := range []string{"50", "100"} {
		t.Run("scale="+scale, func(t *testing.T) {
			out := runOK(t, "-workload", "phaseshift", "-online", "-scale", scale)
			var evals, verified, rolledBack, quarantines, panics int
			if _, err := fmt.Sscanf(field(t, out, "guarded adaptation:"),
				"guarded adaptation: %d rule evaluations, %d verified, %d rolled back, %d quarantines, %d contained panics",
				&evals, &verified, &rolledBack, &quarantines, &panics); err != nil {
				t.Fatalf("parsing guarded-adaptation line: %v\n%s", err, out)
			}
			if evals == 0 || verified == 0 || rolledBack == 0 || quarantines == 0 || panics != 0 {
				t.Fatalf("guarded adaptation: %d evaluations, %d verified, %d rolled back, %d quarantines, %d panics; want all but panics nonzero",
					evals, verified, rolledBack, quarantines, panics)
			}
			_, states, ok := strings.Cut(out, "per-context decision state:\n")
			if !ok {
				t.Fatalf("no per-context state block:\n%s", out)
			}
			redecided := 0
			for _, line := range strings.Split(strings.TrimRight(states, "\n"), "\n") {
				status, _, _ := strings.Cut(strings.TrimSpace(line), " ")
				switch status {
				case "undecided", "active", "verified", "quarantined", "default":
				default:
					t.Errorf("state line with unknown status: %q", line)
				}
				if status == "quarantined" {
					if !strings.Contains(line, "backoff=") || strings.Contains(line, "previous decision") {
						t.Errorf("quarantined context without its current backoff and reason: %q", line)
					}
					continue
				}
				if strings.Contains(line, "backoff=") {
					t.Errorf("backoff printed for a context no longer quarantined: %q", line)
				}
				if strings.Contains(line, "rollbacks=") {
					redecided++
					if !strings.Contains(line, "previous decision: ") {
						t.Errorf("re-decided context's rollback reason not marked as the previous decision's: %q", line)
					}
				}
			}
			if !strings.Contains(states, "verified    phase.") || !strings.Contains(states, "rollbacks=1") {
				t.Errorf("want a verified context and a rolled-back one:\n%s", states)
			}
			if scale == "100" && redecided == 0 {
				t.Errorf("want a rolled-back context re-decided at scale 100:\n%s", states)
			}
		})
	}
}

// linkedListOnly writes a rules file whose one rule matches no context of
// phaseshift or tvla: neither allocates a LinkedList.
func linkedListOnly(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "linkedlist.cham")
	if err := os.WriteFile(path, []byte("LinkedList : #get(int) > X -> ArrayList\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The set -rules loads is the one the online selector decides with: under
// a rule that matches nothing, phaseshift's baited contexts stay on their
// defaults, where the builtin set replaces hundreds of allocations.
func TestOnlineUsesLoadedRules(t *testing.T) {
	out := runOK(t, "-workload", "phaseshift", "-scale", "50", "-online", "-rules", linkedListOnly(t))
	if got := field(t, out, "online mode:"); got != "online mode: 0 allocations received a replaced implementation" {
		t.Errorf("%s, want 0 replaced allocations", got)
	}
	if strings.Contains(out, "verified    phase.") || strings.Contains(out, " -> ") {
		t.Errorf("a rule set that matches nothing applied a decision:\n%s", out)
	}
}

// -plan derives its plan from the set -rules loads.
func TestPlanUsesLoadedRules(t *testing.T) {
	out := runOK(t, "-workload", "tvla", "-scale", "20", "-plan", "-rules", linkedListOnly(t))
	if got := field(t, out, "tvla: plan rewrote"); got != "tvla: plan rewrote 0 contexts" {
		t.Errorf("%s, want 0 contexts", got)
	}
}

// TestCompareReport: tvla's tuned variant shrinks its HashMap contexts,
// so -compare prints positive per-context gains and a smaller minimal
// heap.
func TestCompareReport(t *testing.T) {
	out := runOK(t, "-workload", "tvla", "-compare", "-scale", "20")
	field(t, out, "per-context gains, tvla baseline -> tuned (top 15):")
	row := field(t, out, "tvla.util.HashMapFactory:31;")
	if !strings.HasSuffix(row, "(HashMap -> ArrayMap)") || strings.Fields(row)[3] == "0" {
		t.Errorf("want a positive HashMap -> ArrayMap gain, got %q", row)
	}
	var before, after int64
	if _, err := fmt.Sscanf(field(t, out, "minimal heap:"), "minimal heap: %d -> %d bytes", &before, &after); err != nil {
		t.Fatalf("parsing minimal-heap line: %v\n%s", err, out)
	}
	if after <= 0 || after >= before {
		t.Errorf("minimal heap %d -> %d, want a smaller nonzero tuned heap", before, after)
	}
}
