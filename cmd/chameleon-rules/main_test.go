package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
	"chameleon/internal/spec"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

const buggyFile = "examples/badrules/buggy.cham"

// repoRoot is resolved at package init, before any test chdirs away
// from the package directory.
var repoRoot = func() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Join(wd, "..", "..")
}()

// runCLI invokes the command from the repository root (paths in goldens and
// diagnostics stay stable) and returns the exit status with both streams.
// The chdir is by absolute path so tests that invoke the CLI more than
// once stay anchored.
func runCLI(t *testing.T, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	t.Chdir(repoRoot)
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

func checkGolden(t *testing.T, got, goldenPath string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (rerun with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output does not match %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// The buggy example demonstrates every diagnostic; its text rendering is the
// user-facing contract.
func TestVetBuggyGoldenText(t *testing.T) {
	status, stdout, _ := runCLI(t, "vet", buggyFile)
	if status != exitFailure {
		t.Errorf("status = %d, want %d (the file has error-severity findings)", status, exitFailure)
	}
	checkGolden(t, stdout, filepath.Join("cmd/chameleon-rules/testdata", "vet_buggy.txt"))
	// One diagnostic per rule, one lint kind each.
	for _, code := range []string{
		rules.CodeUnsatisfiable, rules.CodeAlwaysTrue, rules.CodeShadowed,
		rules.CodeVacuousOp, rules.CodeSelfReplace, rules.CodeZeroDivisor,
		rules.CodeStableUnread, rules.CodeStableConflict,
	} {
		if !strings.Contains(stdout, "["+code+"]") {
			t.Errorf("text output missing [%s]", code)
		}
	}
	if !strings.Contains(stdout, "8 rules: 2 errors, 6 warnings") {
		t.Errorf("summary line missing or wrong:\n%s", stdout)
	}
}

func TestVetBuggyGoldenJSON(t *testing.T) {
	status, stdout, _ := runCLI(t, "vet", "-json", buggyFile)
	if status != exitFailure {
		t.Errorf("status = %d, want %d", status, exitFailure)
	}
	checkGolden(t, stdout, filepath.Join("cmd/chameleon-rules/testdata", "vet_buggy.json"))
	var diags []rules.Diagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostic array: %v", err)
	}
	if len(diags) != 8 {
		t.Errorf("decoded %d diagnostics, want 8", len(diags))
	}
}

// The shipped rule sets must vet clean through the CLI path too.
func TestVetShippedSets(t *testing.T) {
	for _, fl := range []string{"-builtin", "-extended"} {
		status, stdout, stderr := runCLI(t, "vet", fl)
		if status != exitOK {
			t.Errorf("vet %s: status = %d, stderr: %s", fl, status, stderr)
		}
		if !strings.Contains(stdout, "0 errors, 0 warnings") {
			t.Errorf("vet %s: summary = %q, want clean", fl, stdout)
		}
	}
}

// -json must emit an array even when there is nothing to report.
func TestVetCleanJSONIsEmptyArray(t *testing.T) {
	status, stdout, _ := runCLI(t, "vet", "-json", "-builtin")
	if status != exitOK {
		t.Errorf("status = %d, want 0", status)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json output = %q, want []", stdout)
	}
}

// -strict promotes warnings to a failing status; without it warning-only
// files pass.
func TestVetStrict(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "warn.cham")
	if err := os.WriteFile(path, []byte("ArrayList : maxSize > Y -> ArrayList\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if status, _, _ := runCLI(t, "vet", path); status != exitOK {
		t.Errorf("warnings without -strict: status = %d, want 0", status)
	}
	if status, _, _ := runCLI(t, "vet", "-strict", path); status != exitFailure {
		t.Errorf("warnings with -strict: status = %d, want 1", status)
	}
}

// check owns the vocabulary; the buggy file is vocabulary-clean, so check
// passes and merely relays the vet advisories on stderr.
func TestCheckBuggyPassesWithAdvisories(t *testing.T) {
	status, stdout, stderr := runCLI(t, "check", buggyFile)
	if status != exitOK {
		t.Errorf("status = %d, want 0 (vocabulary is valid)", status)
	}
	if !strings.Contains(stdout, "8 rules OK") {
		t.Errorf("stdout = %q, want the OK line", stdout)
	}
	if !strings.Contains(stderr, "["+rules.CodeUnsatisfiable+"]") {
		t.Errorf("stderr should carry the vet advisories, got: %q", stderr)
	}
}

func TestExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	noParse := filepath.Join(dir, "noparse.cham")
	if err := os.WriteFile(noParse, []byte("this is not : a rule ->"), 0o644); err != nil {
		t.Fatal(err)
	}
	badVocab := filepath.Join(dir, "vocab.cham")
	if err := os.WriteFile(badVocab, []byte("ArrayList : #frob > X -> LinkedList\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := writeSnapshot(t, dir)
	type exitCase struct {
		name string
		args []string
		want int
	}
	cases := []exitCase{
		{"no arguments", nil, exitUsage},
		{"unknown command", []string{"frobnicate"}, exitUsage},
		{"vet without input", []string{"vet"}, exitUsage},
		{"vet conflicting inputs", []string{"vet", "-builtin", "-extended"}, exitUsage},
		{"help", []string{"help"}, exitOK},
		{"missing file", []string{"vet", filepath.Join(dir, "absent.cham")}, exitFailure},
		{"parse error", []string{"vet", noParse}, exitParse},
		{"parse error via check", []string{"check", noParse}, exitParse},
		{"vocabulary error", []string{"vet", badVocab}, exitVocab},
		{"vocabulary error via check", []string{"check", badVocab}, exitVocab},
		{"vocabulary error via explain", []string{"explain", badVocab, "-profile", snap}, exitVocab},
	}
	// Every subcommand that evaluates or checks rules exits 4 on a file
	// failing check, whether or not the snapshot holds the rule's srcType.
	for i, src := range failingCheck {
		path := filepath.Join(dir, fmt.Sprintf("check%d.cham", i))
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{"check", path},
			{"vet", path},
			{"eval", path, "-profile", snap},
			{"explain", path, "-profile", snap},
		} {
			cases = append(cases, exitCase{fmt.Sprintf("failing check %d via %s", i, args[0]), args, exitVocab})
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, _, _ := runCLI(t, c.args...)
			if status != c.want {
				t.Errorf("run(%v) = %d, want %d", c.args, status, c.want)
			}
		})
	}
}

// writeSnapshot lands a snapshot of one ArrayList context in dir.
func writeSnapshot(t *testing.T, dir string) string {
	t.Helper()
	prof := profiler.New()
	ctx := alloctx.NewTable().Static("rules.Site:1;rules.Main:2")
	for i := 0; i < 4; i++ {
		in := prof.OnAlloc(ctx, spec.KindArrayList, spec.KindArrayList, 0)
		in.Record(spec.Add)
		in.NoteSize(1)
		prof.OnDeath(in)
	}
	path := filepath.Join(dir, "snap.json")
	if err := profiler.WriteProfilesFile(path, prof.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return path
}

// failingCheck holds rule files that parse but fail check: an unknown
// operation and an unbound parameter, each on a srcType the snapshot
// holds (ArrayList) and on one it does not (LinkedHashSet).
var failingCheck = []string{
	"ArrayList : #frob > 1 -> LinkedList\n",
	"LinkedHashSet : #frob > 1 -> HashSet\n",
	"ArrayList : #add > Q -> LinkedList\n",
	"LinkedHashSet : #add > Q -> HashSet\n",
}

// fmt over the buggy file must round-trip: its output re-parses and prints
// identically.
func TestFmtRoundTrip(t *testing.T) {
	status, stdout, stderr := runCLI(t, "fmt", buggyFile)
	if status != exitOK {
		t.Fatalf("status = %d, stderr: %s", status, stderr)
	}
	rs, err := rules.Parse(stdout)
	if err != nil {
		t.Fatalf("fmt output does not re-parse: %v", err)
	}
	if rules.Print(rs) != stdout {
		t.Error("fmt output is not a fixed point of Print")
	}
}

// eval leads its report with the vet findings of the rule set it ran,
// then the suggestions: the buggy example over the committed tvla
// snapshot.
func TestEvalBuggyGolden(t *testing.T) {
	status, stdout, stderr := runCLI(t, "eval", buggyFile, "-profile", "internal/experiments/testdata/tvla_profiles.golden")
	if status != exitOK {
		t.Fatalf("status = %d, stderr: %s", status, stderr)
	}
	checkGolden(t, stdout, filepath.Join("cmd/chameleon-rules/testdata", "eval_buggy_tvla.txt"))
}

// phaseshiftSnapshot is `chameleon -workload phaseshift -scale 50
// -profile-out` output. Its contexts' sizes vary (maxSize sd up to 61), so
// rules reach the implicit stability gate, which no tvla or pmd context
// does.
const phaseshiftSnapshot = "cmd/chameleon-rules/testdata/phaseshift_profiles.json"

// eval and explain over the phaseshift snapshot, for the builtin set and
// the buggy example: the gate's verdicts are part of both outputs.
func TestPhaseShiftGoldens(t *testing.T) {
	builtin := filepath.Join(t.TempDir(), "builtin.cham")
	if err := os.WriteFile(builtin, []byte(rules.BuiltinSource), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct{ name, path string }{{"builtin", builtin}, {"buggy", buggyFile}} {
		for _, cmd := range []string{"eval", "explain"} {
			status, stdout, stderr := runCLI(t, cmd, set.path, "-profile", phaseshiftSnapshot)
			if status != exitOK {
				t.Fatalf("%s %s: status = %d, stderr: %s", cmd, set.name, status, stderr)
			}
			if cmd == "explain" && !strings.Contains(stdout, "blocked by the implicit stability gate") {
				t.Errorf("explain %s: no rule reached the stability gate", set.name)
			}
			checkGolden(t, stdout, filepath.Join("cmd/chameleon-rules/testdata", cmd+"_"+set.name+"_phaseshift.txt"))
		}
	}
}

// -param binds a shipped set too: with X=0, builtin rule 3's "< X" over
// nonnegative op counts can never hold, so vet fails on it.
func TestVetBuiltinUnderParam(t *testing.T) {
	status, stdout, stderr := runCLI(t, "vet", "-builtin", "-param", "X=0")
	if status != exitFailure {
		t.Errorf("status = %d, want %d; stderr: %s", status, exitFailure, stderr)
	}
	want := `15:62: warning [never-true] rule 3: comparison "#addAt + #addAllAt + #removeAt + #removeFirst < X" can never be true
15:81: error [unsat] rule 3: condition "#addAt + #addAllAt + #removeAt + #removeFirst < X && maxSize > 0 && emptyFraction < F" can never be true: the rule never fires
<builtin>: 14 rules: 1 errors, 1 warnings
`
	if stdout != want {
		t.Errorf("vet -builtin -param X=0:\n--- got ---\n%s--- want ---\n%s", stdout, want)
	}
}
