package apply

import (
	"errors"
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/analysis"
	"chameleon/internal/collections"
	"chameleon/internal/heap"
	"chameleon/internal/profiler"
	"chameleon/internal/spec"
	"chameleon/internal/workloads"
)

// The apply tests drive the real pipeline end to end: profile a workload
// in process, run the analysis + advisor + rewriter over the actual
// repository tree, and assert on the classification and the rewritten
// bytes. Nothing is written to disk.

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

// profileWorkload runs one workload baseline under a fully profiled
// static-mode runtime and returns the snapshot — the same artifact
// `chameleon -profile-out` writes.
func profileWorkload(t *testing.T, name string, scale int) []*profiler.Profile {
	t.Helper()
	sp, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New()
	h := heap.New(heap.Config{GCThreshold: 1 << 30, Observer: prof, KeepSnapshots: true, KeepContexts: true})
	rt := collections.NewRuntime(collections.Config{
		Heap:     h,
		Profiler: prof,
		Contexts: alloctx.NewTable(),
		Mode:     alloctx.Static,
	})
	sp.Run(rt, workloads.Baseline, scale)
	return prof.Snapshot()
}

func runApply(t *testing.T, profiles []*profiler.Profile) *Result {
	t.Helper()
	res, err := Run(Options{
		Dir:          repoRoot(t),
		Patterns:     []string{"./internal/workloads"},
		Profiles:     profiles,
		MinPotential: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// decisionsByLabel collects the classifications of every site carrying
// the given static label (variant arms share one label).
func decisionsByLabel(res *Result, label string) []SiteDecision {
	var out []SiteDecision
	for _, d := range res.Sites {
		if d.Site.Label == label {
			out = append(out, d)
		}
	}
	return out
}

const (
	pmdViolationsLabel = "net.sourceforge.pmd.RuleContext:74;net.sourceforge.pmd.ast.SimpleNode:152"
	pmdRuleSetLabel    = "net.sourceforge.pmd.RuleSetFactory:41;net.sourceforge.pmd.PMD:102"
	stableLabel        = "phase.Counter.bump:12;phase.Server.handle:29"
	shiftMapLabel      = "phase.Cache.lookup:42;phase.Server.handle:17"
)

func TestApplyPMDReplacesViolationsSite(t *testing.T) {
	res := runApply(t, profileWorkload(t, "pmd", 30))
	if len(res.Stale) != 0 {
		t.Fatalf("unexpected stale contexts: %v", res.Stale)
	}

	// The violations label covers three arms of one switch: the baseline
	// arm (no Impl) must be rewritten to the lazy fixed constructor; the
	// two tuned arms are programmer-pinned and must be skipped.
	var replaced, forced int
	for _, d := range decisionsByLabel(res, pmdViolationsLabel) {
		switch {
		case d.Site.Forced == "":
			if d.Status != StatusReplace || d.Constructor != "NewFixedLazyArrayList" {
				t.Fatalf("baseline violations arm: %s %q (%s)", d.Status, d.Constructor, d.Reason)
			}
			if d.Capacity != 0 {
				t.Fatalf("lazy replacement must keep the site's Cap, got capacity %d", d.Capacity)
			}
			replaced++
		default:
			if d.Status != StatusSkipForced {
				t.Fatalf("tuned arm (Impl %s): %s, want %s", d.Site.Forced, d.Status, StatusSkipForced)
			}
			forced++
		}
	}
	if replaced != 1 || forced != 2 {
		t.Fatalf("violations arms: %d replaced, %d forced (want 1 and 2)", replaced, forced)
	}

	// The long-lived rule sets escape into a slice: refuted, untouched.
	for _, d := range decisionsByLabel(res, pmdRuleSetLabel) {
		if d.Status != StatusSkipUnsafe {
			t.Fatalf("escaping rule-set site: %s (%s), want %s", d.Status, d.Reason, StatusSkipUnsafe)
		}
	}

	if len(res.Files) != 1 || !strings.HasSuffix(res.Files[0].Path, "pmd.go") {
		t.Fatalf("rewritten files = %v, want exactly pmd.go", paths(res.Files))
	}
	out := string(res.Files[0].Rewritten)
	if !strings.Contains(out, "collections.NewFixedLazyArrayList[int](rt, pmdViolationsCtx(),") {
		t.Fatalf("rewritten pmd.go lacks the fixed constructor:\n%s", out)
	}
	if !strings.Contains(out, "collections.Cap(pmdOversizedCap)") {
		t.Fatalf("rewrite dropped the original Cap argument")
	}
	// Exactly one new occurrence of the fixed constructor (the source
	// already carries one in the hand-specialized variant arm).
	delta := strings.Count(out, "NewFixedLazyArrayList") - strings.Count(string(res.Files[0].Original), "NewFixedLazyArrayList")
	if delta != 1 {
		t.Fatalf("fixed constructor written %d times, want 1", delta)
	}
	assertGofmtStable(t, res.Files[0])
}

func TestApplyPhaseShiftOnlyStableContextDecided(t *testing.T) {
	res := runApply(t, profileWorkload(t, "phaseshift", 50))
	if len(res.Stale) != 0 {
		t.Fatalf("unexpected stale contexts: %v", res.Stale)
	}

	// The stable context (always exactly one entry, zero size variance)
	// is decided: HashMap with maxSize 1 -> ArrayMap(1).
	for _, d := range decisionsByLabel(res, stableLabel) {
		if d.Status != StatusReplace || d.Constructor != "NewFixedArrayMap" {
			t.Fatalf("stable context: %s %q (%s)", d.Status, d.Constructor, d.Reason)
		}
		if d.Capacity != 1 {
			t.Fatalf("stable context capacity = %d, want 1", d.Capacity)
		}
	}

	// The shifting contexts have a huge size standard deviation; the
	// Definition 3.1 stability gate must leave them undecided — exactly
	// the sites an ahead-of-time rewrite must not touch.
	for _, d := range decisionsByLabel(res, shiftMapLabel) {
		if d.Status != StatusSkipUndecided {
			t.Fatalf("shifting context: %s (%s), want %s", d.Status, d.Reason, StatusSkipUndecided)
		}
	}

	if len(res.Files) != 1 || !strings.HasSuffix(res.Files[0].Path, "phaseshift.go") {
		t.Fatalf("rewritten files = %v, want exactly phaseshift.go", paths(res.Files))
	}
	out := string(res.Files[0].Rewritten)
	// The site has no Cap argument; the decided capacity is appended.
	if !strings.Contains(out, "collections.NewFixedArrayMap[int, int](rt, stableCtx(), collections.Cap(1))") {
		t.Fatalf("rewritten phaseshift.go lacks the sized fixed constructor:\n%s", out)
	}
	assertGofmtStable(t, res.Files[0])
}

func TestStaleSnapshotContextsDetected(t *testing.T) {
	// A snapshot whose static labels were interned against a different
	// tree: every decided context joins no discovered site.
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

	res := runApply(t, prof.Snapshot())
	if len(res.Stale) != 1 || res.Stale[0] != "gone.Package.fn:10;gone.Main.run:20" {
		t.Fatalf("stale = %v, want the foreign context", res.Stale)
	}
	if len(res.Files) != 0 {
		t.Fatalf("a fully stale snapshot still rewrote %v", paths(res.Files))
	}
}

func TestManifestGate(t *testing.T) {
	root := repoRoot(t)
	ares, err := analysis.Analyze(root, []string{"./internal/workloads"}, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	manifest := ares.Manifest()
	profiles := profileWorkload(t, "pmd", 20)

	// A matching manifest passes.
	if _, err := Run(Options{Dir: root, Patterns: []string{"./internal/workloads"}, Profiles: profiles, MinPotential: -1, Manifest: manifest}); err != nil {
		t.Fatalf("matching manifest rejected: %v", err)
	}

	// Tampering with the rewritten site's identity must be caught.
	tampered := *manifest
	tampered.Sites = append([]analysis.Site(nil), manifest.Sites...)
	found := false
	for i := range tampered.Sites {
		s := &tampered.Sites[i]
		if s.Label == pmdViolationsLabel && s.Forced == "" {
			s.ContextKey++
			found = true
		}
	}
	if !found {
		t.Fatal("violations site not in manifest")
	}
	_, err = Run(Options{Dir: root, Patterns: []string{"./internal/workloads"}, Profiles: profiles, MinPotential: -1, Manifest: &tampered})
	var mm *ManifestMismatchError
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("tampered manifest accepted: %v", err)
	}
	if !errors.As(err, &mm) {
		t.Fatalf("manifest divergence is not a ManifestMismatchError: %T", err)
	}
}

func TestDiffRendersRewrite(t *testing.T) {
	res := runApply(t, profileWorkload(t, "pmd", 20))
	d := Diff(repoRoot(t), res.Files)
	for _, want := range []string{
		"--- a/internal/workloads/pmd.go",
		"+++ b/internal/workloads/pmd.go",
		"-\t\t\tviolations = collections.NewArrayList[int](rt, pmdViolationsCtx(),",
		"+\t\t\tviolations = collections.NewFixedLazyArrayList[int](rt, pmdViolationsCtx(),",
	} {
		if !strings.Contains(d, want) {
			t.Fatalf("diff lacks %q:\n%s", want, d)
		}
	}
}

func TestApplyEditsSpliceAndReject(t *testing.T) {
	src := []byte("abcdef")
	out, err := applyEdits(src, []edit{{1, 3, "XY"}, {4, 4, "_"}})
	if err != nil || string(out) != "aXYd_ef" {
		t.Fatalf("applyEdits = %q, %v", out, err)
	}
	if _, err := applyEdits(src, []edit{{1, 4, "x"}, {3, 5, "y"}}); err == nil {
		t.Fatal("overlapping edits accepted")
	}
	if string(src) != "abcdef" {
		t.Fatal("applyEdits mutated its input")
	}
}

func assertGofmtStable(t *testing.T, f FileRewrite) {
	t.Helper()
	again, err := format.Source(f.Rewritten)
	if err != nil {
		t.Fatalf("rewritten %s does not parse: %v", f.Path, err)
	}
	if string(again) != string(f.Rewritten) {
		t.Fatalf("rewritten %s is not gofmt-stable", f.Path)
	}
}

func paths(files []FileRewrite) []string {
	var out []string
	for _, f := range files {
		out = append(out, f.Path)
	}
	return out
}

// TestWriteFilesKeepsFileMode: an in-place rewrite keeps the source file's
// permission bits and leaves no temp file behind.
func TestWriteFilesKeepsFileMode(t *testing.T) {
	for _, mode := range []os.FileMode{0o644, 0o755, 0o600} {
		dir := t.TempDir()
		path := filepath.Join(dir, "site.go")
		if err := os.WriteFile(path, []byte("package site\n"), mode); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(path, mode); err != nil { // independent of the umask
			t.Fatal(err)
		}
		want := "package site\n\nvar x = 1\n"
		if err := WriteFiles([]FileRewrite{{Path: path, Rewritten: []byte(want)}}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("rewritten contents %q (%v), want %q", got, err, want)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != mode {
			t.Fatalf("mode after WriteFiles = %v, want %v", fi.Mode().Perm(), mode)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("temp file left behind: %v", entries)
		}
	}
}
