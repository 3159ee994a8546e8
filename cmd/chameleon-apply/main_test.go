package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/heap"
	"chameleon/internal/profiler"
	"chameleon/internal/spec"
	"chameleon/internal/workloads"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	return root
}

// writeSnapshot profiles one workload in process and writes the v3
// snapshot file the CLI consumes.
func writeSnapshot(t *testing.T, workload string, scale int) string {
	t.Helper()
	sp, err := workloads.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New()
	h := heap.New(heap.Config{GCThreshold: 1 << 30, Observer: prof, KeepSnapshots: true, KeepContexts: true})
	rt := collections.NewRuntime(collections.Config{
		Heap: h, Profiler: prof, Contexts: alloctx.NewTable(), Mode: alloctx.Static,
	})
	sp.Run(rt, workloads.Baseline, scale)
	path := filepath.Join(t.TempDir(), workload+".json")
	if err := profiler.WriteProfilesFile(path, prof.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeBogusSnapshot fabricates a snapshot whose decided context was
// interned against a different tree — the "wrong contextKey generation"
// case: the labels (and so the keys) join nothing in this one.
func writeBogusSnapshot(t *testing.T) string {
	t.Helper()
	tab := alloctx.NewTable()
	prof := profiler.New()
	ctx := tab.Static("gone.Package.fn:10;gone.Main.run:20")
	for i := 0; i < 4; i++ {
		in := prof.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 16)
		for j := 0; j < 4; j++ {
			in.Record(spec.Put)
			in.NoteSize(j + 1)
		}
		prof.OnDeath(in)
	}
	path := filepath.Join(t.TempDir(), "bogus.json")
	if err := profiler.WriteProfilesFile(path, prof.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != exitUsage {
		t.Fatalf("no -profile: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-no-such-flag"); code != exitUsage {
		t.Fatalf("unknown flag: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-profile", "p.json", "-builtin", "-extended"); code != exitUsage {
		t.Fatalf("two rule sources: exit %d, want %d", code, exitUsage)
	}
}

func TestBadInputs(t *testing.T) {
	root := repoRoot(t)
	if code, _, _ := runCLI(t, "-profile", filepath.Join(t.TempDir(), "absent.json")); code != exitBadInput {
		t.Fatalf("missing snapshot: exit %d, want %d", code, exitBadInput)
	}
	garbage := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(garbage, []byte("{not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI(t, "-profile", garbage); code != exitBadInput {
		t.Fatalf("corrupt snapshot: exit %d, want %d", code, exitBadInput)
	}
	snap := writeSnapshot(t, "pmd", 10)
	if code, _, _ := runCLI(t, "-dir", root, "-profile", snap, "./does/not/exist/..."); code != exitBadInput {
		t.Fatalf("bad pattern: exit %d, want %d", code, exitBadInput)
	}
	for _, src := range failingCheck {
		rulesPath := filepath.Join(t.TempDir(), "rules.cham")
		if err := os.WriteFile(rulesPath, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if code, _, stderr := runCLI(t, "-dir", root, "-profile", snap, "-rules", rulesPath, "./internal/workloads"); code != exitBadInput {
			t.Errorf("rules %q: exit %d, want %d\nstderr: %s", src, code, exitBadInput, stderr)
		}
	}
}

// failingCheck holds rule files that parse but fail check: an unknown
// operation and an unbound parameter, each on a srcType the pmd snapshot
// holds (ArrayList) and on one it does not (LinkedHashSet).
var failingCheck = []string{
	"ArrayList : #frob > 1 -> LinkedList\n",
	"LinkedHashSet : #frob > 1 -> HashSet\n",
	"ArrayList : #add > Q -> LinkedList\n",
	"LinkedHashSet : #add > Q -> HashSet\n",
}

func TestListAndDiff(t *testing.T) {
	root := repoRoot(t)
	snap := writeSnapshot(t, "pmd", 20)

	code, out, _ := runCLI(t, "-dir", root, "-profile", snap, "./internal/workloads")
	if code != exitOK {
		t.Fatalf("list run: exit %d", code)
	}
	if !strings.Contains(out, "replace: replace NewArrayList with NewFixedLazyArrayList") {
		t.Fatalf("listing lacks the replacement line:\n%s", out)
	}
	if !strings.Contains(out, "1 replaced") || !strings.Contains(out, "1 files rewritten") {
		t.Fatalf("summary line missing:\n%s", out)
	}

	code, out, _ = runCLI(t, "-dir", root, "-profile", snap, "-diff", "./internal/workloads")
	if code != exitOK {
		t.Fatalf("diff run: exit %d", code)
	}
	for _, want := range []string{
		"--- a/internal/workloads/pmd.go",
		"+++ b/internal/workloads/pmd.go",
		"NewFixedLazyArrayList",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff lacks %q:\n%s", want, out)
		}
	}
}

// A stale snapshot must fail with exit 1 before any rewrite — even when
// the caller asked for -verify and -write, the tree must stay untouched.
func TestStaleSnapshotFailsClosed(t *testing.T) {
	root := repoRoot(t)
	snap := writeBogusSnapshot(t)
	target := filepath.Join(root, "internal", "workloads", "pmd.go")
	before, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}

	code, _, errOut := runCLI(t, "-dir", root, "-profile", snap,
		"-verify", "pmd", "-scale", "5", "-write", "./internal/workloads")
	if code != exitFailure {
		t.Fatalf("stale snapshot: exit %d, want %d\n%s", code, exitFailure, errOut)
	}
	if !strings.Contains(errOut, "stale snapshot context") {
		t.Fatalf("stderr does not name the stale context:\n%s", errOut)
	}
	after, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("stale snapshot still rewrote the tree")
	}

	// -allow-stale downgrades the failure; with nothing decided joining
	// a site there is nothing to rewrite, and the run succeeds.
	code, _, _ = runCLI(t, "-dir", root, "-profile", snap, "-allow-stale", "./internal/workloads")
	if code != exitOK {
		t.Fatalf("-allow-stale: exit %d, want %d", code, exitOK)
	}
}
