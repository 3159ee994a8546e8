package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"chameleon/internal/adaptive"
	"chameleon/internal/advisor"
	"chameleon/internal/atomicfile"
	"chameleon/internal/faults"
	"chameleon/internal/profiler"
)

// SourceState is a source's position in the health ledger. The machine
// mirrors the guarded selector's decision lifecycle (ROBUSTNESS.md): a
// source is healthy until deliveries go bad, suspect while strikes
// accumulate, and quarantined — with doubling backoff — once they cross
// the limit. Quarantine ends with a probation read: one success restores
// the source, one failure re-quarantines it for twice as long.
type SourceState int

const (
	// StateHealthy: last delivery parsed clean.
	StateHealthy SourceState = iota
	// StateSuspect: recent deliveries were damaged (partial records) or
	// failed, but not enough consecutive hard failures to quarantine.
	StateSuspect
	// StateQuarantined: the source is not even read until its backoff
	// expires; its data never reaches a merge.
	StateQuarantined
	// StateStale: the file stopped changing (or vanished) for longer than
	// the staleness window; the source sits out merges until it moves.
	StateStale
)

// String renders the ledger state name.
func (s SourceState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateQuarantined:
		return "quarantined"
	case StateStale:
		return "stale"
	}
	return fmt.Sprintf("SourceState(%d)", int(s))
}

// IngestOptions configure a Watcher.
type IngestOptions struct {
	// Dir is the watched snapshot directory (one *.json file per source).
	Dir string
	// Merge tunes the per-tick merge.
	Merge Options
	// Advise tunes the per-tick advisor run over the merged profile.
	Advise advisor.Options
	// FailLimit is the number of consecutive hard failures (unreadable
	// stream, zero valid records) before a source is quarantined.
	// Default 3. Partial deliveries mark a source suspect but never
	// quarantine it: a shard that still ships mostly-valid data is
	// degraded, not lying.
	FailLimit int
	// BackoffTicks is the first quarantine length; each subsequent
	// quarantine doubles it up to BackoffMaxTicks. The backoff never
	// resets (a source that flaps repeatedly earns longer exile each
	// time), mirroring the decision quarantine. Defaults 4 and 64.
	BackoffTicks    int
	BackoffMaxTicks int
	// SkewLimit quarantines a source flagged as the skew outlier for this
	// many consecutive merge rounds — a shard persistently disagreeing
	// with the rest of the fleet poisons every pooled statistic it touches.
	// Default 6; <0 disables.
	SkewLimit int
	// StaleTicks marks a source stale after this many ticks without a
	// fresh delivery. 0 (default) disables staleness.
	StaleTicks int
	// MaxSourceBytes caps a single snapshot read. Default 64 MiB.
	MaxSourceBytes int64
	// Redeliver treats every tick as a fresh delivery even when the file
	// is unchanged (normally an unchanged file is not re-read). Fault
	// soaks use it so per-delivery fault hooks keep firing against a
	// static directory.
	Redeliver bool
	// Publish, when set, receives each tick's plan (compiled from the
	// merged, annotation-filtered advice) and reports how many decisions
	// it installed. SessionPublisher adapts a live session's selector.
	Publish func(*advisor.Plan) int
}

func (o IngestOptions) fill() IngestOptions {
	if o.FailLimit <= 0 {
		o.FailLimit = 3
	}
	if o.BackoffTicks <= 0 {
		o.BackoffTicks = 4
	}
	if o.BackoffMaxTicks <= 0 {
		o.BackoffMaxTicks = 64
	}
	if o.SkewLimit == 0 {
		o.SkewLimit = 6
	}
	if o.MaxSourceBytes <= 0 {
		o.MaxSourceBytes = 64 << 20
	}
	return o
}

// sourceState is one source's ledger entry plus its last good data.
type sourceState struct {
	name        string
	state       SourceState
	strikes     int // consecutive hard failures
	skewStrikes int // consecutive rounds flagged as skew outlier
	quarantines int
	heals       int   // quarantines exited via a clean probation read
	backoff     int64 // current quarantine length in ticks (adaptive.NextBackoff)
	until       int64 // tick at which quarantine expires
	lastErr     string
	kept        int64 // valid records ingested over the source's lifetime
	dropped     int64 // damaged records dropped over the source's lifetime
	delayed     int64 // reads skipped by the injected delayed-delivery fault
	lastMod     time.Time
	lastSize    int64
	lastFresh   int64 // tick of the last fresh delivery
	present     bool  // file existed during the current scan
	good        *Source
}

// Watcher ingests a directory of snapshot sources, maintains the health
// ledger, and on every tick merges the healthy sources, re-advises, and
// optionally hot-publishes the plan. Tick is the deterministic unit —
// tests drive it directly; Run wraps it in a timer loop. The watcher
// never stops on bad input: a source can only hurt itself.
type Watcher struct {
	opts IngestOptions

	mu      sync.Mutex
	tick    int64
	sources map[string]*sourceState

	// Watcher-level conservation totals, incremented at ingest time
	// independently of the per-source counters so the chaos auditors can
	// cross-check that no accounting was lost (Conservation).
	totKept, totDropped, totDelayed int64
	totQuarantines, totHeals        int64
}

// NewWatcher creates a watcher over opts.Dir.
func NewWatcher(opts IngestOptions) *Watcher {
	return &Watcher{opts: opts.fill(), sources: make(map[string]*sourceState)}
}

// TickResult summarizes one ingest round.
type TickResult struct {
	Tick       int64           `json:"tick"`
	Merged     *Result         `json:"-"`
	Contexts   int             `json:"contexts"`
	Conflicted int             `json:"conflicted"`
	Published  int             `json:"published"`
	Ledger     Ledger          `json:"ledger"`
	Advice     *advisor.Report `json:"-"`
}

// Ledger is the serializable health ledger, sorted by source name.
type Ledger struct {
	Tick    int64          `json:"tick"`
	Sources []SourceHealth `json:"sources"`
}

// SourceHealth is one ledger row.
type SourceHealth struct {
	Name           string `json:"name"`
	State          string `json:"state"`
	Strikes        int    `json:"strikes"`
	SkewStrikes    int    `json:"skewStrikes,omitempty"`
	Quarantines    int    `json:"quarantines"`
	Heals          int    `json:"heals,omitempty"`
	BackoffTicks   int    `json:"backoffTicks,omitempty"`
	UntilTick      int64  `json:"quarantinedUntilTick,omitempty"`
	RecordsKept    int64  `json:"recordsKept"`
	RecordsDropped int64  `json:"recordsDropped"`
	RecordsDelayed int64  `json:"recordsDelayed,omitempty"`
	LastError      string `json:"lastError,omitempty"`
}

// Tick runs one ingest round: scan the directory, read every source that
// is due, update the ledger, merge the healthy data, advise, publish.
func (w *Watcher) Tick() (TickResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tick++

	entries, err := os.ReadDir(w.opts.Dir)
	if err != nil {
		return TickResult{Tick: w.tick, Ledger: w.ledgerLocked()}, fmt.Errorf("fleet: scan %s: %w", w.opts.Dir, err)
	}
	for _, st := range w.sources {
		st.present = false
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		st := w.sources[name]
		if st == nil {
			st = &sourceState{name: name, state: StateHealthy}
			w.sources[name] = st
		}
		st.present = true
		w.ingestLocked(st, info)
	}
	for _, st := range w.sources {
		if !st.present && st.state != StateQuarantined {
			st.state = StateStale
			st.lastErr = "source file removed"
		}
	}

	res := TickResult{Tick: w.tick}
	var eligible []Source
	for _, st := range w.sources {
		if st.present && st.state != StateQuarantined && st.state != StateStale && st.good != nil {
			eligible = append(eligible, *st.good)
		}
	}
	sort.Slice(eligible, func(i, j int) bool { return eligible[i].Name < eligible[j].Name })
	if len(eligible) > 0 {
		merged := Merge(eligible, w.opts.Merge)
		res.Merged = merged
		res.Contexts = merged.Report.Contexts
		res.Conflicted = len(merged.Report.Conflicted)
		w.chargeSkewLocked(merged)
		rep, err := merged.Advise(w.opts.Advise)
		if err == nil {
			res.Advice = rep
			if w.opts.Publish != nil {
				res.Published = w.opts.Publish(advisor.NewPlan(rep))
			}
		}
	}
	res.Ledger = w.ledgerLocked()
	return res, nil
}

// ingestLocked reads one source file if it is due and classifies the
// delivery. Quarantined sources are not read at all until their backoff
// expires; unchanged files are not re-read (no fresh delivery).
func (w *Watcher) ingestLocked(st *sourceState, info os.FileInfo) {
	if st.state == StateQuarantined {
		if w.tick < st.until {
			return // backoff: do not even read
		}
		// Probation: fall through to a read even if the file is unchanged.
	} else if !w.opts.Redeliver && info.ModTime().Equal(st.lastMod) && info.Size() == st.lastSize {
		if w.opts.StaleTicks > 0 && st.lastFresh > 0 && w.tick-st.lastFresh > int64(w.opts.StaleTicks) {
			st.state = StateStale
			st.lastErr = "no fresh delivery"
		}
		return
	}
	if faults.IngestDelay(st.name) {
		// Delayed delivery: the data is not there yet, so nothing is read
		// and no freshness (or staleness) accounting changes — the next
		// tick sees the file as changed and reads it normally.
		st.delayed++
		w.totDelayed++
		return
	}
	st.lastMod, st.lastSize = info.ModTime(), info.Size()

	path := filepath.Join(w.opts.Dir, st.name)
	data, err := os.ReadFile(path)
	if err == nil && int64(len(data)) > w.opts.MaxSourceBytes {
		err = fmt.Errorf("snapshot exceeds %d bytes", w.opts.MaxSourceBytes)
	}
	if err != nil {
		w.hardFailureLocked(st, err.Error())
		return
	}
	if mutated, fire := faults.IngestSnapshot(st.name, data); fire {
		data = mutated
	}
	src, _ := ReadSource(st.name, bytes.NewReader(data))
	st.dropped += int64(len(src.Errors))
	w.totDropped += int64(len(src.Errors))
	if src.Err != "" || len(src.Profiles) == 0 {
		reason := src.Err
		if reason == "" {
			reason = fmt.Sprintf("no valid records (%d damaged)", len(src.Errors))
		}
		w.hardFailureLocked(st, reason)
		return
	}
	// Delivery carried usable data: the source rejoins the fleet.
	if st.state == StateQuarantined {
		st.heals++
		w.totHeals++
	}
	st.good = &src
	st.kept += int64(len(src.Profiles))
	w.totKept += int64(len(src.Profiles))
	st.lastFresh = w.tick
	st.strikes = 0
	st.until = 0
	if len(src.Errors) > 0 {
		st.state = StateSuspect
		st.lastErr = fmt.Sprintf("%d damaged record(s) dropped", len(src.Errors))
	} else {
		st.state = StateHealthy
		st.lastErr = ""
	}
}

// hardFailureLocked charges one hard strike and quarantines the source
// when it crosses the limit — or immediately re-quarantines, with doubled
// backoff, when a probation read fails.
func (w *Watcher) hardFailureLocked(st *sourceState, reason string) {
	st.lastErr = reason
	if st.state == StateQuarantined {
		w.quarantineLocked(st)
		return
	}
	st.strikes++
	if st.strikes >= w.opts.FailLimit {
		w.quarantineLocked(st)
		return
	}
	st.state = StateSuspect
}

// quarantineLocked exiles the source with doubled, capped, never-reset
// backoff — the step the guarded selector applies to decisions.
func (w *Watcher) quarantineLocked(st *sourceState) {
	st.backoff = adaptive.NextBackoff(st.backoff, int64(w.opts.BackoffTicks), int64(w.opts.BackoffMaxTicks))
	st.state = StateQuarantined
	st.quarantines++
	w.totQuarantines++
	st.until = w.tick + st.backoff
	st.strikes = 0
	st.skewStrikes = 0
	st.good = nil // never merge quarantined data, even the last good parse
}

// chargeSkewLocked charges a skew strike to every conflict's outlier
// source and clears strikes for sources that merged clean this round.
// A source that keeps being the one disagreeing with the rest of the
// fleet is quarantined like any other failure mode.
func (w *Watcher) chargeSkewLocked(merged *Result) {
	if w.opts.SkewLimit < 0 {
		return
	}
	outliers := make(map[string]bool)
	for _, ann := range merged.Annotations {
		if ann.Conflicted && ann.Outlier != "" {
			outliers[ann.Outlier] = true
		}
	}
	for _, sr := range merged.Report.Sources {
		st := w.sources[sr.Name]
		if st == nil {
			continue
		}
		if outliers[sr.Name] {
			st.skewStrikes++
			if st.skewStrikes >= w.opts.SkewLimit {
				st.lastErr = "persistent skew outlier"
				w.quarantineLocked(st)
			}
		} else {
			st.skewStrikes = 0
		}
	}
}

// ledgerLocked snapshots the health ledger.
func (w *Watcher) ledgerLocked() Ledger {
	l := Ledger{Tick: w.tick}
	for _, st := range w.sources {
		h := SourceHealth{
			Name:           st.name,
			State:          st.state.String(),
			Strikes:        st.strikes,
			SkewStrikes:    st.skewStrikes,
			Quarantines:    st.quarantines,
			Heals:          st.heals,
			RecordsKept:    st.kept,
			RecordsDropped: st.dropped,
			RecordsDelayed: st.delayed,
			LastError:      st.lastErr,
		}
		if st.state == StateQuarantined {
			h.BackoffTicks = int(st.backoff)
			h.UntilTick = st.until
		}
		l.Sources = append(l.Sources, h)
	}
	sort.Slice(l.Sources, func(i, j int) bool { return l.Sources[i].Name < l.Sources[j].Name })
	return l
}

// Ledger snapshots the current health ledger without running a tick.
func (w *Watcher) Ledger() Ledger {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ledgerLocked()
}

// Conservation is the watcher-level accounting total, maintained at ingest
// time independently of the per-source ledger counters. The conservation
// invariant — every total equals the sum of its column across ledger rows —
// is what the chaos auditors check: a mismatch means a delivery's
// accounting was lost (a row reset, a source dropped from the map).
type Conservation struct {
	RecordsKept    int64 `json:"recordsKept"`
	RecordsDropped int64 `json:"recordsDropped"`
	RecordsDelayed int64 `json:"recordsDelayed"`
	Quarantines    int64 `json:"quarantines"`
	Heals          int64 `json:"heals"`
}

// Conservation snapshots the watcher-level accounting totals.
func (w *Watcher) Conservation() Conservation {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Conservation{
		RecordsKept:    w.totKept,
		RecordsDropped: w.totDropped,
		RecordsDelayed: w.totDelayed,
		Quarantines:    w.totQuarantines,
		Heals:          w.totHeals,
	}
}

// Run ticks the watcher every interval until stop closes, delivering each
// round's result to onTick (which may be nil). Errors from a tick are
// reported through onErr (may be nil) and never stop the loop: the ingest
// service outliving its inputs is the whole point.
func (w *Watcher) Run(stop <-chan struct{}, interval time.Duration, onTick func(TickResult), onErr func(error)) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			res, err := w.Tick()
			if err != nil && onErr != nil {
				onErr(err)
			}
			if onTick != nil {
				onTick(res)
			}
		}
	}
}

var sourceNameRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,128}$`)

// Handler serves the ingest HTTP surface:
//
//	POST /ingest/{source}  — store a pushed snapshot into the watch
//	                         directory (validated, size-capped, written
//	                         atomically); the next tick picks it up and
//	                         the ledger, not the client, decides whether
//	                         the source is trustworthy.
//	GET  /ledger           — the current health ledger as JSON.
//
// A push with an unparseable stream is rejected with 400 so well-behaved
// clients learn immediately; a hostile client that ships valid headers
// and rotten records is caught by the per-source ledger instead.
func (w *Watcher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ledger", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		_ = enc.Encode(w.Ledger())
	})
	mux.HandleFunc("/ingest/", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "POST only", http.StatusMethodNotAllowed)
			return
		}
		name := strings.TrimPrefix(r.URL.Path, "/ingest/")
		name = strings.TrimSuffix(name, ".json")
		if !sourceNameRe.MatchString(name) {
			http.Error(rw, "bad source name", http.StatusBadRequest)
			return
		}
		data, err := io.ReadAll(io.LimitReader(r.Body, w.opts.MaxSourceBytes+1))
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		if int64(len(data)) > w.opts.MaxSourceBytes {
			http.Error(rw, "snapshot too large", http.StatusRequestEntityTooLarge)
			return
		}
		profiles, recErrs, err := profiler.ReadProfilesReport(bytes.NewReader(data))
		if err != nil {
			http.Error(rw, fmt.Sprintf("unreadable snapshot: %v", err), http.StatusBadRequest)
			return
		}
		if err := atomicfile.Write(filepath.Join(w.opts.Dir, name+".json"), data); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		rw.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(rw, "accepted %d record(s), %d damaged\n", len(profiles), len(recErrs))
	})
	return mux
}
