package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/apply"
	"chameleon/internal/collections"
	"chameleon/internal/heap"
	"chameleon/internal/profiler"
)

// The committed testdata (profile.json, golden.diff) is this example's
// contract with chameleon-apply. These tests keep both files fresh: if
// the workload, the rules, or the rewriter change shape, the failure
// message says which fixture to regenerate (the two commands in the
// package comment).

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

func profileSelf(t *testing.T) []*profiler.Profile {
	t.Helper()
	prof := profiler.New()
	h := heap.New(heap.Config{GCThreshold: 1 << 30, Observer: prof, KeepSnapshots: true, KeepContexts: true})
	rt := collections.NewRuntime(collections.Config{
		Heap:     h,
		Profiler: prof,
		Contexts: alloctx.NewTable(),
		Mode:     alloctx.Static,
	})
	run(rt)
	return prof.Snapshot()
}

// TestSnapshotFresh re-profiles the program in process and asserts the
// committed snapshot is byte-identical — serialization is deterministic,
// so any drift means testdata/profile.json needs regenerating.
func TestSnapshotFresh(t *testing.T) {
	var buf bytes.Buffer
	if err := profiler.WriteProfiles(&buf, profileSelf(t)); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join("testdata", "profile.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), committed) {
		t.Fatal("testdata/profile.json is stale — regenerate with:\n" +
			"  go run ./examples/specialize -profile-out examples/specialize/testdata/profile.json")
	}
}

// TestGoldenRewrite runs the real pipeline over this package with the
// committed snapshot and asserts both the per-site classifications and
// the exact rewrite diff.
func TestGoldenRewrite(t *testing.T) {
	root := repoRoot(t)
	profiles, err := profiler.ReadProfilesFile(filepath.Join("testdata", "profile.json"))
	if err != nil {
		t.Fatal(err)
	}

	res, err := apply.Run(apply.Options{
		Dir:          root,
		Patterns:     []string{"./examples/specialize"},
		Profiles:     profiles,
		MinPotential: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stale) != 0 {
		t.Fatalf("stale contexts: %v", res.Stale)
	}

	want := map[string]apply.Status{
		"spec.Document.tags:14;spec.Main.run:40":  apply.StatusReplace,
		"spec.Visitor.visit:31;spec.Main.run:44":  apply.StatusReplace,
		"spec.Encoder.buffer:52;spec.Main.run:47": apply.StatusRetune,
		"spec.Registry.init:22;spec.Main.run:8":   apply.StatusSkipUnsafe,
		"spec.Cache.bucket:67;spec.Main.run:55":   apply.StatusSkipUndecided,
	}
	seen := map[string]apply.Status{}
	for _, d := range res.Sites {
		seen[d.Site.Label] = d.Status
	}
	for label, status := range want {
		if seen[label] != status {
			t.Errorf("site %s: %s, want %s", label, seen[label], status)
		}
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "golden.diff"))
	if err != nil {
		t.Fatal(err)
	}
	if got := apply.Diff(root, res.Files); got != string(golden) {
		t.Fatalf("rewrite diff diverged from testdata/golden.diff — regenerate with:\n"+
			"  go run ./cmd/chameleon-apply -profile examples/specialize/testdata/profile.json -diff ./examples/specialize > examples/specialize/testdata/golden.diff\ngot:\n%s", got)
	}
}
