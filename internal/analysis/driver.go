package analysis

import (
	"bytes"
	"os"
	"os/exec"
	"sort"
	"strings"

	"chameleon/internal/profiler"
	"chameleon/internal/rules"
)

// The driver: one call that loads packages, runs every per-package pass,
// merges the per-package site lists, and applies the cross-package and
// cross-artifact checks. cmd/chameleon-sites, chameleon-apply and the
// golden tests all sit on this entry point so they cannot drift apart.

// Options configures an Analyze run beyond the package patterns.
type Options struct {
	// Rules, when non-nil, enables the rule cross-checks (S009 dead
	// rules, S010 uncovered sites). RuleFile names the rule source in
	// S009 positions ("<builtin>" for compiled-in sets).
	Rules    *rules.RuleSet
	RuleFile string
	// Profiles, when non-nil, enables the snapshot cross-check (S011
	// stale contexts). SnapshotFile names the snapshot in positions.
	Profiles     []*profiler.Profile
	SnapshotFile string
}

// Result is everything one Analyze run produced.
type Result struct {
	// Packages are the loaded target packages, sorted by import path.
	Packages []*Package
	// Sites is the merged cross-package site list in manifest order,
	// findings and syntax attached.
	Sites []Site
	// Diagnostics are all findings, sorted by position then code.
	Diagnostics []Diagnostic
	// Module is the module path of the analyzed tree ("" outside a
	// module).
	Module string
}

// Analyze loads the packages matching patterns under dir, runs site
// discovery, the escape check and the misuse check on each package, and
// applies the configured cross-checks.
func Analyze(dir string, patterns []string, opts Options) (*Result, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}

	var sites []Site
	var diags []Diagnostic
	for _, pkg := range pkgs { // pkgs are sorted; merge order is stable
		pass := &Pass{Pkg: pkg}
		pkgSites := findSites(pass)
		for i := range pkgSites {
			checkEscape(pass, &pkgSites[i])
		}
		checkMisuse(pass)
		sites = append(sites, pkgSites...)
		diags = append(diags, pass.diags...)
	}
	diags = append(diags, DupLabels(sites)...)
	if opts.Rules != nil {
		diags = append(diags, CrossCheckRules(sites, opts.Rules, opts.RuleFile)...)
	}
	if opts.Profiles != nil {
		diags = append(diags, CrossCheckSnapshot(sites, opts.Profiles, opts.SnapshotFile)...)
	}
	sortDiagnostics(diags)
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return &Result{
		Packages:    pkgs,
		Sites:       sites,
		Diagnostics: diags,
		Module:      Module(dir),
	}, nil
}

// Manifest assembles the result's site manifest.
func (r *Result) Manifest() *Manifest {
	return NewManifest(r.Module, append([]string(nil), pkgPathsOf(r.Packages)...), r.Sites)
}

// Module reports the module path governing dir, or "".
func Module(dir string) string {
	cmd := exec.Command("go", "list", "-m")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=")
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return ""
	}
	return strings.TrimSpace(out.String())
}

func pkgPathsOf(pkgs []*Package) []string {
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		paths = append(paths, p.PkgPath)
	}
	return paths
}

// sortDiagnostics orders diagnostics by file, line, column, then code,
// so output is deterministic across runs.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Code < b.Code
	})
}
