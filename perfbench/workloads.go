package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"chameleon/internal/advisor"
	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/core"
	"chameleon/internal/profiler"
)

// workload is one benchmark workload: a traffic generator plus the runtime
// configuration its passes run under.
type workload struct {
	name string
	why  string
	// prepare generates the seeded input and its reference result.
	prepare func(seed uint64) instance
}

var workloads = []workload{
	{
		name:    "offline-report",
		why:     "paper 5.2 flow on one goroutine: heap simulator, record/flush, static interning, persistence, rules and advisor; no selector, no dynamic capture",
		prepare: func(seed uint64) instance { return newBatch(seed, offlineShapes, offlineConfig) },
	},
	{
		name:    "online-auto",
		why:     "paper 5.4 automatic mode on two goroutines: dynamic capture, interning under contention, decide/verify/rollback and evidence windows",
		prepare: func(seed uint64) instance { return newBatch(seed, onlineShapes, onlineConfig) },
	},
	{
		name:    "serve-shared",
		why:     "two closed-loop clients on shared Zipf-keyed collections: shared instrumentation path, client locks, concurrent backings, selector fast path",
		prepare: func(seed uint64) instance { return newServe(seed) },
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// gcThreshold is the simulated heap's allocation volume between collection
// cycles: small, so a pass runs enough cycles for GC-count savings to be
// measured in whole percent.
const gcThreshold = 16 << 10

// config is one runtime configuration a pass runs under.
type config struct {
	heap    bool // simulated heap (a core session); false = bare wrappers
	profile bool // trace profiling
	mode    alloctx.Mode
	online  bool // online selector
	verify  bool // guarded verification of online decisions
	plan    collections.Selector
	meter   bool // wire the overhead meter (traced runs)
	report  bool // snapshot, persist, advise and plan at the end of a pass
}

var (
	offlineConfig = config{heap: true, profile: true, mode: alloctx.Static, report: true}
	onlineConfig  = config{heap: true, profile: true, mode: alloctx.Dynamic, online: true, verify: true}
	serveConfig   = config{heap: true, profile: true, mode: alloctx.Static, online: true, verify: true}
	// noSelection is the reference a saving is measured against: the same
	// input on the simulated heap with no selection at all.
	noSelection = config{heap: true, mode: alloctx.Static}
)

// build constructs the configuration's runtime (and session, if any).
func (c config) build() (*core.Session, *collections.Runtime) {
	if !c.heap {
		return nil, collections.NewRuntime(collections.Config{Mode: alloctx.Off})
	}
	cc := core.Config{
		Mode:        c.mode,
		NoProfiling: !c.profile,
		Online:      c.online,
		GCThreshold: gcThreshold,
		Selector:    c.plan,
	}
	if !c.verify {
		cc.OnlineOptions.VerifyEvery = -1
	}
	if c.meter {
		cc.OverheadBudget = 0.05 // wires the meter; ticking stays manual
	}
	s := core.NewSession(cc)
	return s, s.Runtime()
}

// passResult is what one pass produced.
type passResult struct {
	dur  time.Duration
	ops  int  // ops completed: 1 for a batch pass, its requests for serve
	ok   bool // the checksum matched the reference
	sess *core.Session
	// minHeap and numGC are the simulated heap's outcome (0 without heap).
	minHeap int64
	numGC   int
	// offline-report only: the pass's report and plan, and the profiler's
	// live instances when the snapshot was taken; on traced passes, the
	// share of planted pathologies the plan fixes.
	report        *advisor.Report
	plan          *advisor.Plan
	liveInstances int
	recall        float64
	// lat holds the pass's task (batch) or request (serve-shared)
	// latencies and, serve-shared only, locks the client-lock waits of
	// traced passes (ns); both stay valid until the next pass.
	lat, locks []*histogram
}

// instance is a prepared workload input.
type instance interface {
	// pass runs one op under cfg; a non-nil tracer records spans.
	pass(cfg config, tr *tracer) passResult
	// main is the workload's own configuration.
	main() config
	// serving reports whether ops are requests rather than whole passes.
	serving() bool
	// size describes the input for the run record.
	size() string
}

// batch is a prepared batch program (offline-report, online-auto).
type batch struct {
	prog *program
	opts *siteOptions
	ref  []uint64
	cfg  config
	lat  []*histogram // per-stream task latencies, reset per pass
}

var (
	offlineShapes = []shape{{rounds: 40, perTask: 6, probes: 3, ring: 3072, mediumPct: 100}}
	onlineShapes  = []shape{
		// pmd-like: allocation-heavy short-lived lists and sets.
		{admit: func(s *site) bool {
			return s.fam == famList || s.role == roleEmptySet || s.role == roleLargeSet
		}, rounds: 100, perTask: 8, probes: 2, ring: 64, mediumPct: 30},
		// tvla-like: op-heavy small get-dominated maps and small sets.
		{admit: func(s *site) bool {
			return s.fam == famMap || s.role == roleSmallSet
		}, rounds: 90, perTask: 4, probes: 2, ring: 1024, mediumPct: 100},
	}
)

func newBatch(seed uint64, shapes []shape, cfg config) *batch {
	p := genProgram(seed, shapes)
	b := &batch{prog: p, opts: newSiteOptions(p.sites), ref: p.reference(), cfg: cfg}
	for range p.streams {
		b.lat = append(b.lat, newHistogram())
	}
	return b
}

func (b *batch) main() config  { return b.cfg }
func (b *batch) serving() bool { return false }
func (b *batch) size() string {
	return fmt.Sprintf("%d streams, %d ops, %d sites", len(b.prog.streams), b.prog.opCount(), len(b.prog.sites))
}

// planted maps the planted sites' context keys, as a traced pass recorded
// them, to the implementations that fix them.
func (b *batch) planted(keys *[numFamilies][sitesPerFamily]uint64) map[uint64][]string {
	out := make(map[uint64][]string)
	for s, fixes := range b.prog.planted() {
		if key := keys[s.fam][s.idx]; key != 0 {
			out[key] = fixes
		}
	}
	return out
}

func (b *batch) pass(cfg config, tr *tracer) passResult {
	t0 := time.Now()
	root := tr.begin("pass")
	id := tr.begin("core.NewSession")
	s, rt := cfg.build()
	tr.end(id)

	streams := b.prog.streams
	machines := make([]*machine, len(streams))
	sums := make([]uint64, len(streams))
	for i := range streams {
		machines[i] = newMachine(rt, b.opts, &streams[i])
		b.lat[i].reset()
		machines[i].lat = b.lat[i]
		if tr != nil {
			machines[i].keys = new([numFamilies][sitesPerFamily]uint64)
		}
	}
	epilogue := func(i int) { sums[i] = machines[i].run(streams[i].epilogue) }

	id = tr.begin("driver.run")
	if len(streams) == 1 {
		machines[0].run(streams[0].prologue)
		machines[0].run(streams[0].body)
	} else {
		// One goroutine per stream. The epilogues (which free the retained
		// pools) wait until every body is done, so the simulated heap's peak
		// does not depend on which stream finishes first.
		var wg sync.WaitGroup
		for i := range streams {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				machines[i].run(streams[i].prologue)
				machines[i].run(streams[i].body)
			}(i)
		}
		wg.Wait()
		for i := range streams {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				epilogue(i)
			}(i)
		}
		wg.Wait()
	}
	tr.end(id)

	res := passResult{sess: s, lat: b.lat}
	if s != nil {
		id = tr.begin("Session.FinalGC")
		s.FinalGC()
		tr.end(id)
	}
	var reportErr error
	if cfg.report && s != nil && s.Prof != nil {
		res.liveInstances = s.Prof.LiveInstances()
		res.report, res.plan, reportErr = b.reportPass(s, tr)
	}
	if len(streams) == 1 {
		id = tr.begin("driver.epilogue")
		epilogue(0)
		tr.end(id)
	}
	tr.end(root)
	res.dur = time.Since(t0)
	res.ops = 1
	res.ok = reportErr == nil
	for i := range sums {
		res.ok = res.ok && sums[i] == b.ref[i]
	}
	if s != nil {
		res.minHeap = s.Heap.MinimalHeap()
		res.numGC = s.Heap.Stats().NumGC
	}
	if tr != nil && res.plan != nil {
		keys := new([numFamilies][sitesPerFamily]uint64)
		for _, m := range machines {
			for f := range m.keys {
				for i, k := range m.keys[f] {
					if k != 0 {
						keys[f][i] = k
					}
				}
			}
		}
		res.recall = recall(res.plan, b.planted(keys))
	}
	return res
}

// reportPass is the offline tail of a pass: snapshot, persist round trip,
// advise and plan. A round trip that loses records is a wrong result.
func (b *batch) reportPass(s *core.Session, tr *tracer) (*advisor.Report, *advisor.Plan, error) {
	id := tr.begin("Profiler.Snapshot")
	profs := s.Prof.Snapshot()
	tr.end(id)

	id = tr.begin("profiler.persist")
	var buf bytes.Buffer
	if err := profiler.WriteProfiles(&buf, profs); err != nil {
		return nil, nil, fmt.Errorf("writing profiles: %w", err)
	}
	back, bad, err := profiler.ReadProfilesReport(&buf)
	if err != nil || len(bad) > 0 || len(back) != len(profs) {
		return nil, nil, fmt.Errorf("profile round trip: %v, %d bad records, %d of %d read", err, len(bad), len(back), len(profs))
	}
	tr.end(id)

	id = tr.begin("advisor.Advise")
	rep, err := advisor.Advise(back, advisor.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("advise: %w", err)
	}
	tr.end(id)

	id = tr.begin("advisor.NewPlan")
	plan := advisor.NewPlan(rep)
	tr.end(id)
	return rep, plan, nil
}

// serve is a prepared serve-shared batch of requests.
type serve struct {
	in *serveInput
	// per-client request latencies and client-lock waits, reset per pass.
	lat, locks [2]*histogram
}

func newServe(seed uint64) *serve {
	sv := &serve{in: genServe(seed)}
	for w := range sv.lat {
		sv.lat[w], sv.locks[w] = newHistogram(), newHistogram()
	}
	return sv
}

func (sv *serve) main() config  { return serveConfig }
func (sv *serve) serving() bool { return true }
func (sv *serve) size() string {
	return fmt.Sprintf("%d requests in %d generations of %d", len(sv.in.reqs), serveGens, genRequests)
}

func (sv *serve) pass(cfg config, tr *tracer) passResult {
	t0 := time.Now()
	root := tr.begin("pass")
	id := tr.begin("core.NewSession")
	s, rt := cfg.build()
	tr.end(id)

	var locks [2]*histogram
	for w := range sv.lat {
		sv.lat[w].reset()
		sv.locks[w].reset()
		if tr != nil {
			locks[w] = sv.locks[w]
		}
	}
	id = tr.begin("serve.batch")
	sum := serveBatch(rt, sv.in, sv.lat, locks)
	tr.end(id)
	tr.end(root)

	res := passResult{
		dur: time.Since(t0), ops: len(sv.in.reqs), ok: sum == sv.in.ref, sess: s,
		lat: sv.lat[:], locks: sv.locks[:],
	}
	if s != nil {
		id = tr.begin("Session.FinalGC")
		s.FinalGC()
		tr.end(id)
		res.minHeap = s.Heap.MinimalHeap()
		res.numGC = s.Heap.Stats().NumGC
	}
	return res
}

// keepAlive keeps a pass's session reachable up to this call.
func keepAlive(pr passResult) { runtime.KeepAlive(pr.sess) }
