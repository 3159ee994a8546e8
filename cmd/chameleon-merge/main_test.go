package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/fleet"
	"chameleon/internal/profiler"
	"chameleon/internal/spec"
)

// writeSnapshot builds a real profiler snapshot with n contexts and lands
// it at path.
func writeSnapshot(t *testing.T, path string, seed, n int) {
	t.Helper()
	tab := alloctx.NewTable()
	p := profiler.New()
	for i := 0; i < n; i++ {
		ctx := tab.Static(fmt.Sprintf("merge.Site%d:1;merge.Main:4", i))
		for k := 0; k < 4+seed; k++ {
			in := p.OnAlloc(ctx, spec.KindArrayList, spec.KindArrayList, 0)
			for j := 0; j <= i+k+seed; j++ {
				in.Record(spec.Add)
				in.NoteSize(j + 1)
			}
			p.OnDeath(in)
		}
	}
	if err := profiler.WriteProfilesFile(path, p.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestMergeModeWritesFleetSnapshot(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	writeSnapshot(t, a, 0, 3)
	writeSnapshot(t, b, 2, 5)
	out := filepath.Join(dir, "fleet.json")

	code, stdout, stderr := runCLI(t, "-o", out, a, b)
	if code != exitOK {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "merged: 5 context(s) from 2 source(s)") {
		t.Fatalf("summary missing:\n%s", stdout)
	}
	profiles, recErrs, err := profiler.ReadProfilesFileReport(out)
	if err != nil || len(recErrs) > 0 {
		t.Fatalf("fleet snapshot unreadable: %v %v", err, recErrs)
	}
	if len(profiles) != 5 {
		t.Fatalf("fleet snapshot has %d contexts, want 5", len(profiles))
	}
}

func TestMergeModeDegradesAndAccounts(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	writeSnapshot(t, good, 1, 4)
	// A torn copy of a DIFFERENT shard and an outright dead file.
	tornSrc := filepath.Join(dir, "tornsrc.json")
	writeSnapshot(t, tornSrc, 3, 4)
	raw, err := os.ReadFile(tornSrc)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, raw[:len(raw)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	dead := filepath.Join(dir, "dead.json")
	if err := os.WriteFile(dead, []byte("nonsense"), 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runCLI(t, "-json", good, torn, dead)
	if code != exitOK {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	var payload struct {
		Report fleet.MergeReport `json:"report"`
	}
	if err := json.Unmarshal([]byte(stdout), &payload); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	if payload.Report.FailedSources != 1 || payload.Report.DroppedRecords == 0 {
		t.Fatalf("accounting wrong: %+v", payload.Report)
	}
	if !strings.Contains(stderr, "source degraded") {
		t.Fatalf("dead source not reported on stderr:\n%s", stderr)
	}
}

func TestMergeModeAllDead(t *testing.T) {
	dir := t.TempDir()
	dead := filepath.Join(dir, "dead.json")
	if err := os.WriteFile(dead, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, _ := runCLI(t, dead, filepath.Join(dir, "missing.json"))
	if code != exitFailure {
		t.Fatalf("exit %d, want %d", code, exitFailure)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != exitUsage {
		t.Fatalf("no args: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-bogus"); code != exitUsage {
		t.Fatalf("bad flag: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-advise", "-rules", "rules.cham", "-extended", "a.json"); code != exitUsage {
		t.Fatalf("-rules with -extended: exit %d, want %d", code, exitUsage)
	}
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

// A rules file that fails check is a failure (1) whether or not the
// snapshot holds a context the rule could evaluate on.
func TestRulesFailingCheckExitOne(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "a.json")
	writeSnapshot(t, snap, 0, 3)
	for _, src := range failingCheck {
		path := filepath.Join(dir, "rules.cham")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if code, _, stderr := runCLI(t, "-advise", "-rules", path, snap); code != exitFailure {
			t.Errorf("%q: exit %d, want %d\nstderr: %s", src, code, exitFailure, stderr)
		}
	}
}
