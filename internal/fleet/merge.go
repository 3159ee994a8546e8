// Package fleet aggregates profile snapshots from many processes into one
// fleet profile (docs/FLEET.md): the paper's offline flow (§5.2) over
// several runs. No single run sees every behaviour of the program, and
// naive averaging across shards that genuinely behave differently is
// actively wrong — aggregation must detect skew and flag it, not smear it.
//
// The merge is built on three robustness rules:
//
//   - Every input is hostile until proven valid. Sources are read through
//     profiler.ReadProfilesReport, so corrupt or torn snapshots degrade
//     per-record; every dropped record and failed source is counted in the
//     MergeReport, never silently discarded.
//   - Delivery is at-least-once, so aggregation must be idempotent. A
//     contribution identical to one already merged for the same context is
//     a duplicate (a retried upload, a copied file), not a second shard
//     that behaved bit-identically, and is counted once. Merging K copies
//     of a snapshot therefore equals the snapshot itself.
//   - Disagreement is information. When the same context shows divergent
//     op-mixes or size modes across sources, the context is annotated
//     conflicted with a confidence score; the advisor surfaces the
//     annotation and plans exclude the context.
//
// Statistics merge through stats.Welford.Merge (Chan et al.): each
// source's per-context accumulator is rebuilt from its serialized moments
// with stats.FromMoments and pooled exactly, weighted by instance
// evidence — the same arithmetic the profiler uses when an instance dies.
package fleet

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"chameleon/internal/advisor"
	"chameleon/internal/alloctx"
	"chameleon/internal/profiler"
	"chameleon/internal/spec"
	"chameleon/internal/stats"
)

// Source is one fleet member's snapshot: its valid records plus the
// per-record damage report. Err carries a stream-level read failure; a
// failed source contributes nothing to a merge but is still reported.
type Source struct {
	Name     string
	Profiles []*profiler.Profile
	Errors   []profiler.RecordError
	Err      string
}

// ReadSource reads one snapshot with the corruption-tolerant reader. The
// returned error mirrors Source.Err for callers that want to fail fast;
// Merge accepts the Source either way and accounts for the failure.
func ReadSource(name string, r io.Reader) (Source, error) {
	profiles, recErrs, err := profiler.ReadProfilesReport(r)
	s := Source{Name: name, Profiles: profiles, Errors: recErrs}
	if err != nil {
		s.Err = err.Error()
		return s, err
	}
	return s, nil
}

// ReadSourceFile reads one snapshot file; the source is named by the
// file's base name.
func ReadSourceFile(path string) (Source, error) {
	name := filepath.Base(path)
	f, err := os.Open(path)
	if err != nil {
		return Source{Name: name, Err: err.Error()}, err
	}
	defer f.Close()
	return ReadSource(name, f)
}

// Options tune a merge.
type Options struct {
	// MinSourceEvidence is the instance evidence a source's contribution
	// needs before it participates in skew detection (below it, a context
	// view is too noisy to accuse of divergence). Default 8.
	MinSourceEvidence int64
	// MinConfidence is the cross-source agreement threshold below which a
	// context is flagged conflicted. Default 0.7.
	MinConfidence float64
}

// DefaultMinSourceEvidence and DefaultMinConfidence are the Options
// defaults.
const (
	DefaultMinSourceEvidence = 8
	DefaultMinConfidence     = 0.7
)

func (o Options) fill() Options {
	if o.MinSourceEvidence <= 0 {
		o.MinSourceEvidence = DefaultMinSourceEvidence
	}
	if o.MinConfidence <= 0 {
		o.MinConfidence = DefaultMinConfidence
	}
	return o
}

// Result is a completed merge: the fleet profile, the per-context
// provenance annotations the advisor surfaces, and the damage report.
type Result struct {
	Profiles    []*profiler.Profile
	Annotations map[string]advisor.Annotation
	Report      MergeReport
}

// Advise runs the advisor over the fleet profile with the merge's
// annotations attached, so conflicted contexts show their confidence in
// the report and are excluded from plans.
func (r *Result) Advise(opts advisor.Options) (*advisor.Report, error) {
	opts.Annotations = r.Annotations
	return advisor.Advise(r.Profiles, opts)
}

// MergeReport accounts for every source, record and drop in a merge.
type MergeReport struct {
	Sources []SourceReport `json:"sources"`
	// Contexts is the number of merged contexts.
	Contexts int `json:"contexts"`
	// Duplicates counts exact-duplicate contributions dropped fleet-wide
	// (at-least-once delivery: the same data must not double-count).
	Duplicates int `json:"duplicates"`
	// DroppedRecords counts unreadable records across all sources.
	DroppedRecords int `json:"droppedRecords"`
	// FailedSources counts sources that contributed nothing.
	FailedSources int `json:"failedSources"`
	// Conflicted lists the contexts flagged by skew detection, sorted.
	Conflicted []string `json:"conflicted,omitempty"`
}

// SourceReport is one source's accounting.
type SourceReport struct {
	Name string `json:"name"`
	// Records is the number of contributions merged from this source.
	Records int `json:"records"`
	// Duplicates counts contributions dropped as exact duplicates.
	Duplicates int `json:"duplicates,omitempty"`
	// Dropped counts unreadable records reported by the reader.
	Dropped int `json:"dropped,omitempty"`
	// Err is the stream-level failure ("" when the source was readable).
	Err string `json:"error,omitempty"`
}

// String renders the one-line merge summary.
func (r MergeReport) String() string {
	return fmt.Sprintf("%d context(s) from %d source(s) (%d failed); %d duplicate contribution(s), %d dropped record(s), %d conflicted context(s)",
		r.Contexts, len(r.Sources), r.FailedSources, r.Duplicates, r.DroppedRecords, len(r.Conflicted))
}

// contrib is one source's view of one context.
type contrib struct {
	src string
	p   *profiler.Profile
}

// Merge combines the sources into one fleet profile. It never fails: a
// source that could not be read (Err set) or delivered damaged records
// degrades that source, and the report carries the accounting.
func Merge(sources []Source, opts Options) *Result {
	opts = opts.fill()
	byCtx := make(map[string][]contrib)
	var order []string
	rep := MergeReport{}
	for _, s := range sources {
		sr := SourceReport{Name: s.Name, Dropped: len(s.Errors), Err: s.Err}
		rep.DroppedRecords += len(s.Errors)
		for _, p := range s.Profiles {
			key := p.Context.String()
			kept := byCtx[key]
			if isDuplicate(kept, p) {
				sr.Duplicates++
				rep.Duplicates++
				continue
			}
			if len(kept) == 0 {
				order = append(order, key)
			}
			byCtx[key] = append(kept, contrib{src: s.Name, p: p})
			sr.Records++
		}
		if sr.Records == 0 && sr.Duplicates == 0 {
			rep.FailedSources++
		}
		rep.Sources = append(rep.Sources, sr)
	}

	table := alloctx.NewTable()
	res := &Result{Annotations: make(map[string]advisor.Annotation)}
	for _, key := range order {
		cs := byCtx[key]
		p := mergeContext(table, cs)
		ann := annotate(cs, p, opts)
		res.Profiles = append(res.Profiles, p)
		res.Annotations[key] = ann
		if ann.Conflicted {
			rep.Conflicted = append(rep.Conflicted, key)
		}
	}
	sort.Strings(rep.Conflicted)
	rep.Contexts = len(res.Profiles)
	res.Profiles = profiler.Rank(res.Profiles)
	res.Report = rep
	return res
}

// weight is a contribution's pooling weight: its instance evidence, or —
// for live-only contexts that have completed no instances — its
// allocation count, so the contribution still counts for something.
func weight(p *profiler.Profile) int64 {
	if p.Evidence > 0 {
		return p.Evidence
	}
	if p.Allocs > 0 {
		return p.Allocs
	}
	return 1
}

// isDuplicate reports whether an identical contribution for this context
// was already kept (at-least-once delivery collapses to exactly-once).
func isDuplicate(kept []contrib, p *profiler.Profile) bool {
	for _, c := range kept {
		if sameProfile(c.p, p) {
			return true
		}
	}
	return false
}

// sameProfile compares two profiles field by field (exact float equality:
// a duplicate is the same serialized record, not merely similar data).
func sameProfile(a, b *profiler.Profile) bool {
	if a.Context.String() != b.Context.String() ||
		a.Declared != b.Declared || a.Impl != b.Impl ||
		a.Allocs != b.Allocs || a.Live != b.Live || a.Evidence != b.Evidence ||
		a.OpTotals != b.OpTotals || a.OpMean != b.OpMean || a.OpStdDev != b.OpStdDev ||
		a.MaxSizeAvg != b.MaxSizeAvg || a.MaxSizeStdDev != b.MaxSizeStdDev ||
		a.MaxSizeMax != b.MaxSizeMax || a.FinalSizeAvg != b.FinalSizeAvg ||
		a.InitialCapAvg != b.InitialCapAvg ||
		a.EmptyIterators != b.EmptyIterators ||
		a.TotHeap != b.TotHeap || a.MaxHeap != b.MaxHeap ||
		a.TotObjs != b.TotObjs || a.MaxObjs != b.MaxObjs || a.GCCycles != b.GCCycles {
		return false
	}
	return sameHistogram(a.SizeHist, b.SizeHist)
}

func sameHistogram(a, b *stats.Histogram) bool {
	ac, bc := int64(0), int64(0)
	if a != nil {
		ac = a.Count()
	}
	if b != nil {
		bc = b.Count()
	}
	if ac != bc {
		return false
	}
	if ac == 0 {
		return true
	}
	av, bv := a.Values(), b.Values()
	if len(av) != len(bv) {
		return false
	}
	for i, v := range av {
		if v != bv[i] || a.CountOf(v) != b.CountOf(v) {
			return false
		}
	}
	return true
}

// mergeContext pools one context's contributions. Counters sum; per-cycle
// peaks take the component-wise maximum (the same shape the profiler's own
// overflow fold uses); per-instance statistics pool through reconstructed
// Welford accumulators weighted by evidence. A single contribution copies
// through exactly — merge with nothing is identity.
func mergeContext(table *alloctx.Table, cs []contrib) *profiler.Profile {
	best := cs[0]
	for _, c := range cs[1:] {
		if weight(c.p) > weight(best.p) {
			best = c
		}
	}
	out := &profiler.Profile{
		Context:  table.Static(cs[0].p.Context.String()),
		Declared: best.p.Declared,
		Impl:     best.p.Impl,
		SizeHist: stats.NewHistogram(),
	}
	var maxSize, finalSz, initCap stats.Welford
	var ops [spec.NumOps]stats.Welford
	for _, c := range cs {
		p := c.p
		out.Allocs += p.Allocs
		out.Live += p.Live
		out.Evidence += p.Evidence
		out.EmptyIterators += p.EmptyIterators
		out.TotHeap = out.TotHeap.Add(p.TotHeap)
		out.TotObjs += p.TotObjs
		out.GCCycles += p.GCCycles
		out.MaxHeap = out.MaxHeap.Max(p.MaxHeap)
		out.MaxObjs = max(out.MaxObjs, p.MaxObjs)
		for op := spec.Op(0); op < spec.NumOps; op++ {
			out.OpTotals[op] += p.OpTotals[op]
		}
		w := weight(p)
		maxSize.Merge(stats.FromMoments(w, p.MaxSizeAvg, p.MaxSizeStdDev, p.MaxSizeAvg, p.MaxSizeMax))
		finalSz.Merge(stats.FromMoments(w, p.FinalSizeAvg, 0, p.FinalSizeAvg, p.FinalSizeAvg))
		initCap.Merge(stats.FromMoments(w, p.InitialCapAvg, 0, p.InitialCapAvg, p.InitialCapAvg))
		for op := spec.Op(0); op < spec.NumOps; op++ {
			ops[op].Merge(stats.FromMoments(w, p.OpMean[op], p.OpStdDev[op], p.OpMean[op], p.OpMean[op]))
		}
		out.SizeHist.Merge(p.SizeHist)
	}
	if len(cs) == 1 {
		// Exact copy-through: pooling one source must be the identity, and
		// the Welford round-trip (stddev -> m2 -> stddev) is identity only
		// up to rounding.
		p := cs[0].p
		out.MaxSizeAvg, out.MaxSizeStdDev, out.MaxSizeMax = p.MaxSizeAvg, p.MaxSizeStdDev, p.MaxSizeMax
		out.FinalSizeAvg, out.InitialCapAvg = p.FinalSizeAvg, p.InitialCapAvg
		out.OpMean, out.OpStdDev = p.OpMean, p.OpStdDev
		return out
	}
	out.MaxSizeAvg = maxSize.Mean()
	out.MaxSizeStdDev = maxSize.StdDev()
	out.MaxSizeMax = maxSize.Max()
	out.FinalSizeAvg = finalSz.Mean()
	out.InitialCapAvg = initCap.Mean()
	for op := spec.Op(0); op < spec.NumOps; op++ {
		out.OpMean[op] = ops[op].Mean()
		out.OpStdDev[op] = ops[op].StdDev()
	}
	return out
}

// annotate runs skew detection over one context's contributions: sources
// with enough evidence are compared against the pooled view on op-mix
// (L1 distance between operation distributions) and size mode, and the
// worst divergence sets the confidence. Declared-kind disagreement —
// fleet members running different code at the same context — is an
// outright conflict.
func annotate(cs []contrib, merged *profiler.Profile, opts Options) advisor.Annotation {
	srcs := make(map[string]bool)
	for _, c := range cs {
		srcs[c.src] = true
	}
	ann := advisor.Annotation{Sources: len(srcs), Evidence: merged.Evidence, Confidence: 1}

	for _, c := range cs {
		if c.p.Declared != merged.Declared {
			ann.Confidence = 0
			ann.Conflicted = true
			ann.Reason = fmt.Sprintf("sources disagree on declared kind (%s vs %s)", merged.Declared, c.p.Declared)
			ann.Outlier = c.src
			return ann
		}
	}

	var eligible []contrib
	for _, c := range cs {
		if weight(c.p) >= opts.MinSourceEvidence {
			eligible = append(eligible, c)
		}
	}
	if len(eligible) < 2 {
		return ann
	}

	opDiv, opOutlier := opMixDivergence(eligible)
	sizeDiv, sizeOutlier := sizeModeDivergence(eligible)
	div, outlier, what := opDiv, opOutlier, "op-mix"
	if sizeDiv > div {
		div, outlier, what = sizeDiv, sizeOutlier, "size mode"
	}
	ann.Confidence = 1 - div
	if ann.Confidence < 0 {
		ann.Confidence = 0
	}
	if ann.Confidence < opts.MinConfidence {
		ann.Conflicted = true
		ann.Reason = fmt.Sprintf("%s diverges %.2f across %d sources", what, div, len(eligible))
		ann.Outlier = outlier
	}
	return ann
}

// opMixDivergence reports the worst L1/2 distance between one source's
// operation distribution and the pooled distribution, and which source it
// was. Sources with no operations abstain.
func opMixDivergence(cs []contrib) (float64, string) {
	var pooled [spec.NumOps]float64
	var pooledTotal float64
	for _, c := range cs {
		for op := spec.Op(0); op < spec.NumOps; op++ {
			pooled[op] += float64(c.p.OpTotals[op])
			pooledTotal += float64(c.p.OpTotals[op])
		}
	}
	if pooledTotal == 0 {
		return 0, ""
	}
	worst, outlier := 0.0, ""
	for _, c := range cs {
		total := float64(c.p.AllOpsTotal())
		if total == 0 {
			continue
		}
		var d float64
		for op := spec.Op(0); op < spec.NumOps; op++ {
			d += math.Abs(float64(c.p.OpTotals[op])/total - pooled[op]/pooledTotal)
		}
		d /= 2
		if d > worst {
			worst, outlier = d, c.src
		}
	}
	return worst, outlier
}

// sizeModeDivergence compares per-source size modes on a ratio scale:
// modes 1 and 64 across two shards mean the same context backs wildly
// different collections, and a pooled average describes neither.
func sizeModeDivergence(cs []contrib) (float64, string) {
	mode := func(p *profiler.Profile) int64 {
		if p.SizeHist != nil && p.SizeHist.Count() > 0 {
			m, _ := p.SizeHist.Mode()
			return m
		}
		return int64(math.Round(p.MaxSizeAvg))
	}
	lo, hi := int64(math.MaxInt64), int64(-1)
	loSrc, hiSrc := "", ""
	for _, c := range cs {
		m := mode(c.p)
		if m < lo {
			lo, loSrc = m, c.src
		}
		if m > hi {
			hiSrc = c.src
			hi = m
		}
	}
	if hi <= lo {
		return 0, ""
	}
	div := 1 - float64(lo+1)/float64(hi+1)
	// The outlier is whichever extreme sits farther from the pooled mode.
	pooled := mode(mergePooledHist(cs))
	outlier := hiSrc
	if pooled-lo > hi-pooled {
		outlier = loSrc
	}
	return div, outlier
}

// mergePooledHist builds the pooled size view used to pick the skew
// outlier (a contribution without a histogram contributes its rounded
// mean).
func mergePooledHist(cs []contrib) *profiler.Profile {
	h := stats.NewHistogram()
	for _, c := range cs {
		if c.p.SizeHist != nil && c.p.SizeHist.Count() > 0 {
			h.Merge(c.p.SizeHist)
		} else {
			h.AddN(int64(math.Round(c.p.MaxSizeAvg)), weight(c.p))
		}
	}
	return &profiler.Profile{SizeHist: h}
}
