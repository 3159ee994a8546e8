package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// repoRoot is resolved at package init, before any test chdirs away
// from the package directory.
var repoRoot = func() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Join(wd, "..", "..")
}()

// runCLI invokes the command from the repository root and returns the
// exit status with both streams. The chdir is by absolute path so tests
// that invoke the CLI more than once stay anchored.
func runCLI(t *testing.T, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	t.Chdir(repoRoot)
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

func TestCleanTreeExitsZero(t *testing.T) {
	status, stdout, stderr := runCLI(t, "./examples/sitecheck/safe/...")
	if status != exitOK {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", status, stdout, stderr)
	}
	if !strings.Contains(stdout, "0 errors, 0 warnings") {
		t.Errorf("summary missing: %q", stdout)
	}
}

func TestUnsafeFixturesExitOne(t *testing.T) {
	status, stdout, _ := runCLI(t, "./examples/sitecheck/...")
	if status != exitFailure {
		t.Fatalf("exit = %d, want 1 (error-severity findings planted)\n%s", status, stdout)
	}
	for _, code := range []string{"S003", "S005", "S006", "S007"} {
		if !strings.Contains(stdout, code) {
			t.Errorf("expected %s in output:\n%s", code, stdout)
		}
	}
	// Info-level classification facts stay out of default output.
	if strings.Contains(stdout, "[S001]") {
		t.Errorf("info finding printed without -all:\n%s", stdout)
	}
}

func TestAllIncludesInfo(t *testing.T) {
	status, stdout, _ := runCLI(t, "-all", "./examples/sitecheck/unsafe/...")
	if status != exitFailure {
		t.Fatalf("exit = %d, want 1", status)
	}
	for _, code := range []string{"S001", "S002", "S004", "S008"} {
		if !strings.Contains(stdout, code) {
			t.Errorf("expected %s with -all:\n%s", code, stdout)
		}
	}
}

func TestStrictPromotesWarnings(t *testing.T) {
	// The safe tree is warning-free; a rules file whose LinkedList rule
	// is dead against it produces exactly one S009 warning.
	dir := t.TempDir()
	rulesPath := filepath.Join(dir, "dead.cham")
	if err := os.WriteFile(rulesPath, []byte("LinkedList : #get(int) > 4 -> ArrayList\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	status, stdout, _ := runCLI(t, "-rules", rulesPath, "./examples/sitecheck/safe/...")
	if status != exitOK {
		t.Fatalf("warnings alone must not fail: exit = %d\n%s", status, stdout)
	}
	if !strings.Contains(stdout, "S009") {
		t.Fatalf("expected the dead-rule warning:\n%s", stdout)
	}
	status, _, _ = runCLI(t, "-strict", "-rules", rulesPath, "./examples/sitecheck/safe/...")
	if status != exitFailure {
		t.Fatalf("-strict exit = %d, want 1", status)
	}
}

func TestJSONOutput(t *testing.T) {
	status, stdout, _ := runCLI(t, "-json", "-all", "./examples/sitecheck/unsafe/...")
	if status != exitFailure {
		t.Fatalf("exit = %d, want 1", status)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, stdout)
	}
	if len(diags) == 0 {
		t.Fatal("empty diagnostic array for the unsafe tree")
	}
}

func TestJSONEmptyIsArray(t *testing.T) {
	status, stdout, _ := runCLI(t, "-json", "./examples/sitecheck/safe/...")
	if status != exitOK {
		t.Fatalf("exit = %d, want 0", status)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean JSON output = %q, want []", stdout)
	}
}

func TestManifestFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sites.json")
	status, _, stderr := runCLI(t, "-manifest", path, "./examples/sitecheck/safe/...")
	if status != exitOK {
		t.Fatalf("exit = %d: %s", status, stderr)
	}
	m, err := analysis.ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sites) == 0 || m.Module != "chameleon" {
		t.Errorf("manifest sites=%d module=%q", len(m.Sites), m.Module)
	}
}

// checkGolden compares got, with the repository root stripped from its
// paths, against a golden file under testdata (rewritten with -update).
func checkGolden(t *testing.T, got, name string) {
	t.Helper()
	got = strings.ReplaceAll(got, repoRoot+string(filepath.Separator), "")
	path := filepath.Join(repoRoot, "cmd", "chameleon-sites", "testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (rerun with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output does not match %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// The fixture tree's full diagnostic list and its site manifest are the
// analyzer's observable contract: every field of every site and finding,
// and every diagnostic with its position, code and message.
func TestFixtureGoldens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sites.json")
	status, stdout, stderr := runCLI(t, "-all", "-json", "-manifest", path, "./examples/sitecheck/...")
	if status != exitFailure {
		t.Fatalf("exit = %d, want 1 (planted errors)\nstderr: %s", status, stderr)
	}
	manifest, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, stdout, "sitecheck_diagnostics.json")
	checkGolden(t, string(manifest), "sitecheck_manifest.json")
}

func TestUsageErrors(t *testing.T) {
	if status, _, _ := runCLI(t, "-no-such-flag"); status != exitUsage {
		t.Errorf("unknown flag exit = %d, want 2", status)
	}
	if status, _, _ := runCLI(t, "-builtin", "-extended", "./..."); status != exitUsage {
		t.Errorf("conflicting rule sources exit = %d, want 2", status)
	}
}

func TestBadInputsExitThree(t *testing.T) {
	if status, _, _ := runCLI(t, "./no/such/package/..."); status != exitBadInput {
		t.Errorf("unloadable pattern exit = %d, want 3", status)
	}
	if status, _, _ := runCLI(t, "-rules", "no-such-file.cham", "./examples/sitecheck/safe/..."); status != exitBadInput {
		t.Errorf("missing rules file exit = %d, want 3", status)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.cham")
	if err := os.WriteFile(bad, []byte("this is not a rule"), 0o644); err != nil {
		t.Fatal(err)
	}
	if status, _, _ := runCLI(t, "-rules", bad, "./examples/sitecheck/safe/..."); status != exitBadInput {
		t.Errorf("unparseable rules exit = %d, want 3", status)
	}
	for _, src := range failingCheck {
		if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if status, _, _ := runCLI(t, "-rules", bad, "./examples/sitecheck/safe/..."); status != exitBadInput {
			t.Errorf("rules %q failing check: exit = %d, want 3", src, status)
		}
	}
	snap := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(snap, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if status, _, _ := runCLI(t, "-profile", snap, "./examples/sitecheck/safe/..."); status != exitBadInput {
		t.Errorf("unreadable snapshot exit = %d, want 3", status)
	}
}

// failingCheck holds rule files that parse but fail check: an unknown
// operation and an unbound parameter, each on a srcType the safe tree
// allocates (ArrayList) and on one it does not (LinkedHashSet).
var failingCheck = []string{
	"ArrayList : #frob > 1 -> LinkedList\n",
	"LinkedHashSet : #frob > 1 -> HashSet\n",
	"ArrayList : #add > Q -> LinkedList\n",
	"LinkedHashSet : #add > Q -> HashSet\n",
}

func TestBuiltinCrossCheck(t *testing.T) {
	// The shipped rule sets against the whole fixture tree: must load,
	// and any dead-rule/uncovered findings are warnings/infos, never a
	// crash. (Exit is 1 from the planted error-severity sites.)
	status, stdout, stderr := runCLI(t, "-builtin", "./examples/sitecheck/...")
	if status != exitFailure {
		t.Fatalf("exit = %d, want 1 (planted errors)\nstdout: %s\nstderr: %s", status, stdout, stderr)
	}
}
