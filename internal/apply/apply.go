// Package apply is the ahead-of-time half of the Chameleon workflow: it
// takes what the runtime learned — a v3 decision/profile snapshot — and
// burns the settled decisions into source, so the next build pays neither
// the profiling tax nor the selection machinery for sites whose answer is
// already known (§3.3.2: the suggested implementations "can then be
// applied by the programmer (or by the tool)").
//
// The pipeline (docs/SPECIALIZE.md):
//
//	profile  — run the program with profiling; write a snapshot
//	sites    — chameleon-sites discovers allocation sites and proves or
//	           refutes each site's specialization safety
//	apply    — this package: join decisions to safe sites, rewrite
//	fixed    — the rewritten tree allocates through the NewFixed*
//	           constructors (internal/collections/fixed.go)
//
// A site is rewritten only when every link of that chain holds: the site
// is statically labeled (its context key is derivable), the safety
// analysis proved no escape or identity hazard, the options are fully
// resolvable, and the advisor compiled an actionable decision for its
// context. Everything else is left untouched and reported with the
// reason — apply is conservative by construction, because a wrong
// rewrite is a silent behavior change while a skipped one merely keeps
// paying the wrapper cost.
//
// Two rewrite shapes exist. A fully decided replacement moves the call
// to the concrete fixed constructor (NewArrayList -> NewFixedLazyArrayList),
// which skips profiling entirely. A capacity-only decision keeps the
// profiled constructor and only updates Cap, so the site keeps feeding
// future snapshots while allocating right-sized from the start.
package apply

import (
	"fmt"

	"chameleon/internal/advisor"
	"chameleon/internal/analysis"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
)

// Options configures one apply run.
type Options struct {
	// Dir is the directory package patterns resolve in.
	Dir string
	// Patterns are the package patterns to analyze; default "./...".
	Patterns []string
	// Profiles is the decision/profile snapshot the decisions come from.
	Profiles []*profiler.Profile
	// Rules is the rule set the advisor evaluates; nil selects builtin.
	Rules *rules.RuleSet
	// MinPotential is the advisor's negligible-saving gate. Apply
	// defaults it to -1 (disabled): a source rewrite is motivated by
	// time and churn as much as by live bytes, so the snapshot's
	// space-potential ranking should not veto it. Zero selects the
	// advisor default (512); positive values gate as usual.
	MinPotential int64
	// Manifest, when non-nil, is a previously written chameleon-sites
	// manifest acting as a consistency gate: every site apply wants to
	// rewrite must appear in it with the same identity, context key and
	// safety verdict, or the manifest is stale relative to the tree.
	Manifest *analysis.Manifest
}

// Result is everything one apply run computed.
type Result struct {
	// Module is the module path of the analyzed tree.
	Module string
	// Sites is the per-site classification, in source order. Every
	// discovered site appears exactly once, rewritten or not.
	Sites []SiteDecision
	// Files are the rewritten files (only files with at least one
	// rewrite), gofmt-formatted, in path order.
	Files []FileRewrite
	// Stale are the decided snapshot contexts that join no discovered
	// allocation site: evidence the snapshot was taken against a
	// different tree (or the analysis covered fewer packages than the
	// profiled run).
	Stale []string
	// Plan is the compiled decision plan, for reporting.
	Plan *advisor.Plan
}

// FileRewrite is one rewritten file: the original bytes and the
// formatted result of applying every edit.
type FileRewrite struct {
	// Path is the absolute file path.
	Path string
	// Original and Rewritten are the before/after contents.
	Original  []byte
	Rewritten []byte
}

// Replaced and Retuned count the rewrite decisions; Skipped the rest.
func (r *Result) Replaced() int { return r.count(StatusReplace) }

// Retuned counts capacity-only rewrites.
func (r *Result) Retuned() int { return r.count(StatusRetune) }

// Skipped counts sites left untouched.
func (r *Result) Skipped() int { return len(r.Sites) - r.Replaced() - r.Retuned() }

func (r *Result) count(st Status) int {
	n := 0
	for _, d := range r.Sites {
		if d.Status == st {
			n++
		}
	}
	return n
}

// Run analyzes the tree, compiles the snapshot into a plan, classifies
// every discovered site, and computes the rewritten files. Nothing is
// written to disk — the caller decides what to do with Result.Files
// (diff, write, verify in a scratch clone).
func Run(opts Options) (*Result, error) {
	res, err := analysis.Analyze(opts.Dir, opts.Patterns, analysis.Options{})
	if err != nil {
		return nil, err
	}

	rep, err := advisor.Advise(opts.Profiles, advisor.Options{
		Rules:        opts.Rules,
		MinPotential: opts.MinPotential,
	})
	if err != nil {
		return nil, fmt.Errorf("advisor: %v", err)
	}
	plan := advisor.NewPlan(rep)

	out := &Result{Module: res.Module, Plan: plan}
	for _, site := range res.Sites {
		out.Sites = append(out.Sites, classify(site, plan))
	}
	// The plan's decided contexts that join no site, through the S011
	// join; Entries is sorted by context, so Stale is too.
	isStale := analysis.Stale(res.Sites)
	for _, e := range plan.Entries() {
		if isStale(e.ContextKey, e.Context) {
			out.Stale = append(out.Stale, e.Context)
		}
	}

	if opts.Manifest != nil {
		if err := checkManifest(opts.Manifest, out.Sites); err != nil {
			return nil, err
		}
	}

	files, err := rewriteFiles(out.Sites)
	if err != nil {
		return nil, err
	}
	out.Files = files
	return out, nil
}

// ManifestMismatchError reports that the consistency-gate manifest no
// longer describes the analyzed tree. Callers dispatch on it to report
// bad input rather than a runtime failure.
type ManifestMismatchError struct{ msg string }

func (e *ManifestMismatchError) Error() string { return e.msg }

// checkManifest gates the rewrite set against a previously written site
// manifest: a site apply wants to rewrite that is missing from the
// manifest, or whose identity diverged (context key, safety verdict),
// means the manifest no longer describes this tree.
func checkManifest(m *analysis.Manifest, decisions []SiteDecision) error {
	byID := make(map[string]*analysis.Site, len(m.Sites))
	for i := range m.Sites {
		byID[m.Sites[i].ID] = &m.Sites[i]
	}
	for i := range decisions {
		d := &decisions[i]
		if !d.Status.Rewrites() {
			continue
		}
		ms, ok := byID[d.Site.ID]
		if !ok {
			return &ManifestMismatchError{fmt.Sprintf("manifest: site %s not present; the manifest is stale relative to this tree (regenerate with chameleon-sites)", d.Site.ID)}
		}
		if ms.ContextKey != d.Site.ContextKey || ms.Safe != d.Site.Safe {
			return &ManifestMismatchError{fmt.Sprintf("manifest: site %s diverged (contextKey %d vs %d, safe %t vs %t); regenerate with chameleon-sites",
				d.Site.ID, ms.ContextKey, d.Site.ContextKey, ms.Safe, d.Site.Safe)}
		}
	}
	return nil
}
