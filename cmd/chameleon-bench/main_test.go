package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

func runCLI(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// Usage errors are found before any experiment runs: nothing reaches
// stdout.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "nosuch"},
		{"extra", "-experiment", "fig6"},
		{"-bogus"},
	} {
		status, stdout, stderr := runCLI(args...)
		if status != exitUsage {
			t.Errorf("%v: exit %d, want %d\nstderr: %s", args, status, exitUsage, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: usage error ran experiments:\n%s", args, stdout)
		}
	}
}

// The Fig. 6 table is deterministic at a fixed scale.
func TestFig6Golden(t *testing.T) {
	status, stdout, stderr := runCLI("-experiment", "fig6", "-scale", "5")
	if status != exitOK {
		t.Fatalf("exit %d\nstderr: %s", status, stderr)
	}
	const golden = "testdata/fig6_scale5.txt"
	if *update {
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (rerun with -update): %v", err)
	}
	if stdout != string(want) {
		t.Errorf("output does not match %s:\n--- got ---\n%s--- want ---\n%s", golden, stdout, want)
	}
}
