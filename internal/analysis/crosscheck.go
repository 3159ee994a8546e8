package analysis

import (
	"sort"

	"chameleon/internal/alloctx"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
	"chameleon/internal/spec"
)

// Cross-checks: the manifest joined against the other two chameleon
// artifacts. A rule set and a profile snapshot each make claims about
// allocation sites; once the sites are statically known those claims can
// be checked for vacuity.
//
//	S009 — a rule's srcType matches no discovered site: relative to this
//	       program the rule can never fire.
//	S010 — no rule covers a site's declared kind: profiling the site can
//	       never produce a suggestion.
//	S011 — a snapshot context joins no surviving source site: the
//	       profile is stale relative to the program being analyzed.
//
// These run over the merged cross-package site list, so the driver runs
// them after the per-package passes.

// CrossCheckRules checks a rule set against the discovered sites both
// ways: dead rules (S009) and uncovered sites (S010). ruleFile names the
// rule source in S009 positions ("<builtin>" for compiled-in sets).
func CrossCheckRules(sites []Site, rs *rules.RuleSet, ruleFile string) []Diagnostic {
	if rs == nil {
		return nil
	}
	var diags []Diagnostic

	declared := declaredKinds(sites)
	for _, r := range rules.DeadForDeclared(rs, declared) {
		diags = append(diags, Diagnostic{
			Pos:      Position{File: ruleFile, Line: r.At.Line, Col: r.At.Col},
			Code:     CodeDeadRule,
			Severity: SeverityOf(CodeDeadRule),
			Message:  "rule on " + r.Src.String() + " matches no allocation site in this program: it can never fire",
		})
	}

	for i := range sites {
		s := &sites[i]
		k := EffectiveKind(s)
		if k == spec.KindNone {
			continue
		}
		// Uncovered: every rule would be dead in a program declaring
		// only k.
		if len(rules.DeadForDeclared(rs, []spec.Kind{k})) == len(rs.Rules) {
			diags = append(diags, Diagnostic{
				Pos:      Position{File: s.File, Line: s.Line, Col: s.Col},
				Code:     CodeUncoveredSite,
				Severity: SeverityOf(CodeUncoveredSite),
				Message:  "no rule covers " + k.String() + ": profiling this site can never produce a suggestion",
				SiteID:   s.ID,
			})
		}
	}
	return diags
}

// CrossCheckSnapshot checks a profile snapshot against the discovered
// sites: every profiled context should still join a source site (see
// Stale). Contexts that join nothing are stale (S011). snapshotFile
// names the snapshot in diagnostic positions.
func CrossCheckSnapshot(sites []Site, profiles []*profiler.Profile, snapshotFile string) []Diagnostic {
	isStale := Stale(sites)
	var stale []string
	for _, p := range profiles {
		ctx := p.Context
		if ctx == nil || ctx.Key() == 0 {
			continue
		}
		if label := ctx.String(); isStale(ctx.Key(), label) {
			stale = append(stale, label)
		}
	}
	sort.Strings(stale)

	diags := make([]Diagnostic, 0, len(stale))
	for _, label := range stale {
		diags = append(diags, Diagnostic{
			Pos:      Position{File: snapshotFile, Line: 0, Col: 0},
			Code:     CodeStaleContext,
			Severity: SeverityOf(CodeStaleContext),
			Message:  "snapshot context " + label + " joins no surviving allocation site: the profile is stale",
		})
	}
	return diags
}

// Stale indexes sites for the snapshot join and returns its test: a
// context (interned key and label) is stale when it joins no site by
// exact context key, by label (static At labels), or by first frame
// (dynamic captures, whose outer frames vary by caller and are not
// statically known). The shared overflow context and the static-mode
// catch-all "<none>" ((*Context)(nil) renders so, and a snapshot read
// back from disk carries it as a labeled context) are buckets, not
// sites, and are never stale. CrossCheckSnapshot (S011) and
// chameleon-apply's stale-snapshot refusal both join through it.
func Stale(sites []Site) func(key uint64, label string) bool {
	keys := map[uint64]bool{}
	labels := map[string]bool{}
	firstFrames := map[string]bool{}
	for i := range sites {
		s := &sites[i]
		if s.ContextKey != 0 {
			keys[s.ContextKey] = true
		}
		if s.Label != "" {
			labels[s.Label] = true
			firstFrames[alloctx.FirstFrame(s.Label)] = true
		}
	}
	return func(key uint64, label string) bool {
		if label == alloctx.OverflowLabel || label == "<none>" {
			return false
		}
		return !keys[key] && !labels[label] && !firstFrames[alloctx.FirstFrame(label)]
	}
}

// declaredKinds collects the distinct effective kinds over all sites.
func declaredKinds(sites []Site) []spec.Kind {
	seen := map[spec.Kind]bool{}
	var kinds []spec.Kind
	for i := range sites {
		k := EffectiveKind(&sites[i])
		if k == spec.KindNone || seen[k] {
			continue
		}
		seen[k] = true
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// EffectiveKind reports the kind a site actually allocates: the Impl
// override when forced, the declared kind otherwise (abstract for
// inherited sites). chameleon-apply uses this to check a plan decision
// against what the site really produces.
func EffectiveKind(s *Site) spec.Kind {
	if s.Forced != "" {
		if k, ok := spec.KindByName(s.Forced); ok {
			return k
		}
	}
	k, _ := spec.KindByName(s.Declared)
	return k
}
