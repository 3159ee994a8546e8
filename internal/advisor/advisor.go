// Package advisor applies the rule engine to profiler snapshots and
// produces the ranked, context-specific suggestion report of paper §2.1:
//
//	1: HashMap:tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50 replace with ArrayMap
//	4: ArrayList:BaseHashTVSSet:112;tvla.core.base.BaseHashTVSSet:60 set initial capacity
//
// Contexts are ranked by space-saving potential; for each context every
// matching rule is retained, with the first (highest-priority) match as the
// primary suggestion.
package advisor

import (
	"encoding/json"
	"fmt"
	"strings"

	"chameleon/internal/profiler"
	"chameleon/internal/rules"
)

// Options configure a rule-engine run.
type Options struct {
	// Rules is the bound rule set (rules.Bind); nil selects the built-in
	// Table 2 rules.
	Rules *rules.RuleSet
	// MinPotential is the space-saving potential (bytes) below which
	// purely space-motivated replacement suggestions are suppressed
	// (§3.3.1: "we can avoid any space-optimizing replacement when the
	// potential space savings seems negligible"). Zero selects 512;
	// negative disables the gate.
	MinPotential int64
	// Top limits the report to the N highest-potential contexts (0 = all).
	Top int
	// Annotations carries fleet-merge provenance per context string
	// (internal/fleet attaches them when the snapshot is an aggregate of
	// many sources). A context flagged Conflicted keeps its suggestion in
	// the report — annotated, so the disagreement is surfaced instead of
	// silently averaged — but is excluded from plans (NewPlan) and hence
	// from hot publication.
	Annotations map[string]Annotation
}

// Annotation is fleet-merge provenance for one context: how many sources
// contributed, how much evidence, and how confidently their views agree.
// Confidence is 1 minus the worst cross-source divergence observed
// (op-mix or size mode); Conflicted marks contexts whose sources disagree
// enough that acting on the pooled statistics would be acting on a smear.
type Annotation struct {
	// Sources is the number of distinct fleet sources that contributed.
	Sources int `json:"sources"`
	// Evidence is the pooled instance evidence behind the merged stats.
	Evidence int64 `json:"evidence"`
	// Confidence in [0,1]: 1 = all sources agree; lower = divergence.
	Confidence float64 `json:"confidence"`
	// Conflicted reports Confidence below the merge's threshold.
	Conflicted bool `json:"conflicted,omitempty"`
	// Reason names the divergence ("" when none).
	Reason string `json:"reason,omitempty"`
	// Outlier is the source most divergent from the pooled view ("" when
	// none).
	Outlier string `json:"outlier,omitempty"`
}

// String renders the annotation as the report's bracketed note.
func (a Annotation) String() string {
	s := fmt.Sprintf("fleet: %d source(s), evidence %d, confidence %.2f", a.Sources, a.Evidence, a.Confidence)
	if a.Conflicted {
		s += " CONFLICTED"
	}
	if a.Reason != "" {
		s += " (" + a.Reason + ")"
	}
	return s
}

// DefaultMinPotential is the default negligible-saving cutoff in bytes.
const DefaultMinPotential = 512

func (o Options) fill() Options {
	if o.Rules == nil {
		o.Rules = rules.Builtin()
	}
	if o.MinPotential == 0 {
		o.MinPotential = DefaultMinPotential
	}
	return o
}

// Suggestion is one context's primary suggestion plus every other rule
// that matched it.
type Suggestion struct {
	// Rank is the context's 1-based position in the potential ranking.
	Rank int
	// Profile is the context's finalized statistics.
	Profile *profiler.Profile
	// Primary is the highest-priority match.
	Primary rules.Match
	// Others are the remaining matches in priority order.
	Others []rules.Match
	// Annotation is the fleet-merge provenance for this context (nil when
	// the snapshot came from a single process).
	Annotation *Annotation
}

// Describe renders a match as the report's fix phrase.
func Describe(m rules.Match) string {
	switch m.Rule.Act.Kind {
	case rules.ActReplace:
		s := "replace with " + m.Rule.Act.Impl.String()
		if m.Rule.Act.Capacity.Present && m.Capacity > 0 {
			s += fmt.Sprintf(" (initial capacity %d)", m.Capacity)
		}
		return s
	case rules.ActSetCapacity:
		if m.Capacity > 0 {
			return fmt.Sprintf("set initial capacity to %d", m.Capacity)
		}
		return "set initial capacity"
	case rules.ActAvoid:
		return "avoid allocation"
	case rules.ActEliminateCopies:
		return "eliminate temporary copies"
	case rules.ActRemoveIterator:
		return "remove iterator over empty collection"
	}
	return m.Rule.Act.Kind.String()
}

// Report is the result of applying the rule engine to a snapshot.
type Report struct {
	// Ranked is every context in descending potential order (after the
	// Top cut).
	Ranked []*profiler.Profile
	// Suggestions holds one entry per context that matched at least one
	// rule, in rank order.
	Suggestions []Suggestion
	// RuleDiagnostics are the vet findings the rule set that produced the
	// suggestions carries (RuleSet.Diagnostics): a shadowed or
	// never-firing rule skews the report, so Format surfaces them
	// alongside it. Empty for the shipped sets, which are kept vet-clean.
	RuleDiagnostics []rules.Diagnostic
}

// Advise evaluates the rule set over every profile and builds the report.
func Advise(profiles []*profiler.Profile, opts Options) (*Report, error) {
	opts = opts.fill()
	ranked := profiler.Rank(profiles)
	if opts.Top > 0 && len(ranked) > opts.Top {
		ranked = ranked[:opts.Top]
	}
	rep := &Report{Ranked: ranked, RuleDiagnostics: opts.Rules.Diagnostics()}
	for i, p := range ranked {
		ms, err := rules.Eval(opts.Rules, p)
		if err != nil {
			return nil, err
		}
		ms = filterNegligible(ms, p, opts.MinPotential)
		if len(ms) == 0 {
			continue
		}
		sug := Suggestion{
			Rank:    i + 1,
			Profile: p,
			Primary: ms[0],
			Others:  ms[1:],
		}
		if ann, ok := opts.Annotations[p.Context.String()]; ok {
			sug.Annotation = &ann
		}
		rep.Suggestions = append(rep.Suggestions, sug)
	}
	return rep, nil
}

// filterNegligible drops purely space-motivated replacement suggestions
// for contexts whose potential is below the cutoff. Time-motivated and
// mixed suggestions survive, as do the advisory fixes (their benefit is
// allocation churn, which the live-byte potential does not measure).
func filterNegligible(ms []rules.Match, p *profiler.Profile, minPotential int64) []rules.Match {
	if minPotential < 0 {
		return ms
	}
	out := ms[:0]
	for _, m := range ms {
		if m.Rule.Act.Kind == rules.ActReplace && m.Rule.Category() == "Space" && p.Potential() < minPotential {
			continue
		}
		out = append(out, m)
	}
	return out
}

// Format renders the report in the paper's succinct style, one line per
// suggested context, followed by an operation-distribution summary for the
// top contexts (the Fig. 3 view).
func (r *Report) Format() string {
	var b strings.Builder
	if len(r.RuleDiagnostics) > 0 {
		b.WriteString("rule diagnostics:\n")
		for _, d := range r.RuleDiagnostics {
			fmt.Fprintf(&b, "  %s\n", d)
		}
		b.WriteString("\n")
	}
	for _, s := range r.Suggestions {
		fmt.Fprintf(&b, "%d: %s:%s %s\n", s.Rank, s.Profile.Declared, s.Profile.Context, Describe(s.Primary))
		if s.Primary.Rule.Message != "" {
			fmt.Fprintf(&b, "   %s\n", s.Primary.Rule.Message)
		}
		if s.Annotation != nil {
			fmt.Fprintf(&b, "   [%s]\n", s.Annotation)
		}
		for _, o := range s.Others {
			fmt.Fprintf(&b, "   also: %s\n", Describe(o))
		}
	}
	return b.String()
}

// FormatTopContexts renders the Fig. 3 style per-context summary: potential
// and operation distribution for the top n ranked contexts.
func (r *Report) FormatTopContexts(n int) string {
	var b strings.Builder
	for i, p := range r.Ranked {
		if n > 0 && i >= n {
			break
		}
		fmt.Fprintf(&b, "context %d: %s (%s)\n", i+1, p.Context, p.Impl)
		fmt.Fprintf(&b, "  allocs=%d avgMaxSize=%.1f (sd %.1f) potential=%d bytes (maxLive=%d maxUsed=%d maxCore=%d)\n",
			p.Allocs, p.MaxSizeAvg, p.MaxSizeStdDev, p.Potential(), p.MaxHeap.Live, p.MaxHeap.Used, p.MaxHeap.Core)
		if h := p.SizeHist; h != nil && h.Count() > 0 {
			mode, modeN := h.Mode()
			fmt.Fprintf(&b, "  sizes: mode=%d (%.0f%%) p50=%d p90=%d empty=%.0f%%\n",
				mode, 100*h.Fraction(mode), h.Quantile(0.5), h.Quantile(0.9), 100*h.Fraction(0))
			_ = modeN
		}
		fmt.Fprintf(&b, "  ops: %s\n", p.OpDistribution())
	}
	return b.String()
}

// suggestionJSON is the serialization shape of one suggestion.
type suggestionJSON struct {
	Rank      int               `json:"rank"`
	Context   string            `json:"context"`
	Declared  string            `json:"declared"`
	Potential int64             `json:"potential"`
	Fix       string            `json:"fix"`
	Rule      string            `json:"rule"`
	Message   string            `json:"message,omitempty"`
	Others    []string          `json:"others,omitempty"`
	Fleet     *Annotation       `json:"fleet,omitempty"`
	Profile   *profiler.Profile `json:"profile,omitempty"`
}

// MarshalJSON serializes the report's suggestions.
func (r *Report) MarshalJSON() ([]byte, error) {
	out := make([]suggestionJSON, 0, len(r.Suggestions))
	for _, s := range r.Suggestions {
		sj := suggestionJSON{
			Rank:      s.Rank,
			Context:   s.Profile.Context.String(),
			Declared:  s.Profile.Declared.String(),
			Potential: s.Profile.Potential(),
			Fix:       Describe(s.Primary),
			Rule:      rules.PrintRule(s.Primary.Rule),
			Message:   s.Primary.Rule.Message,
			Fleet:     s.Annotation,
			Profile:   s.Profile,
		}
		for _, o := range s.Others {
			sj.Others = append(sj.Others, Describe(o))
		}
		out = append(out, sj)
	}
	return json.Marshal(out)
}
