package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/chaos"
)

func TestUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if got := run([]string{"-bogus"}, &out, &errb); got != exitUsage {
		t.Fatalf("unknown flag: exit %d, want %d", got, exitUsage)
	}
	if got := run([]string{"stray"}, &out, &errb); got != exitUsage {
		t.Fatalf("stray arg: exit %d, want %d", got, exitUsage)
	}
	if got := run([]string{"-seeds", "0"}, &out, &errb); got != exitUsage {
		t.Fatalf("-seeds 0: exit %d, want %d", got, exitUsage)
	}
}

func TestList(t *testing.T) {
	var out, errb strings.Builder
	if got := run([]string{"-list"}, &out, &errb); got != exitOK {
		t.Fatalf("exit %d, stderr %s", got, errb.String())
	}
	for _, want := range []string{"phaseshift", "rule-panic", chaos.AuditNoWedge} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q:\n%s", want, out.String())
		}
	}
}

// TestSoakCleanTree: a small soak over two scenarios passes on an
// unbroken tree and reports PASS.
func TestSoakCleanTree(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-scenarios", "phaseshift,server", "-seeds", "2", "-out", t.TempDir()}, &out, &errb)
	if code != exitOK {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Fatalf("no PASS line:\n%s", out.String())
	}
}

// TestReplayKnownGood: a generated schedule with no recorded violation
// replays clean and exits 0 — the CI replay-smoke path.
func TestReplayKnownGood(t *testing.T) {
	s := chaos.Generate(3, chaos.ScenarioServer, 5)
	path := filepath.Join(t.TempDir(), "good.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{"-replay", path}, &out, &errb); code != exitOK {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "REPLAY PASS") {
		t.Fatalf("no REPLAY PASS:\n%s", out.String())
	}
}

// TestReplayMismatchExits3: a schedule claiming a violation the tree no
// longer exhibits must exit 3 — stale reproducers fail loudly.
func TestReplayMismatchExits3(t *testing.T) {
	s := chaos.Generate(3, chaos.ScenarioServer, 5)
	s.Violation = chaos.AuditNoWedge // lie: the clean tree will not wedge
	path := filepath.Join(t.TempDir(), "stale.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{"-replay", path}, &out, &errb); code != exitAssert {
		t.Fatalf("exit %d, want %d\n%s", code, exitAssert, out.String())
	}
	if !strings.Contains(out.String(), "REPLAY FAIL") {
		t.Fatalf("no REPLAY FAIL:\n%s", out.String())
	}
}

func TestReplayUnreadableExits1(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-replay", filepath.Join(t.TempDir(), "missing.json")}, &out, &errb); code != exitFailure {
		t.Fatalf("exit %d, want %d", code, exitFailure)
	}
	// Malformed JSON is also a runtime failure, not a crash.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-replay", bad}, &out, &errb); code != exitFailure {
		t.Fatalf("malformed: exit %d, want %d", code, exitFailure)
	}
}

// TestJSONOutput: -json emits one parseable object per run line.
func TestJSONOutput(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-scenarios", "contextstorm", "-seeds", "1", "-json", "-out", t.TempDir()}, &out, &errb)
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	first := strings.SplitN(out.String(), "\n", 2)[0]
	if !strings.HasPrefix(first, "{") || !strings.Contains(first, `"checksum"`) {
		t.Fatalf("first line is not a result object: %s", first)
	}
}
