package chaos

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"chameleon/internal/faults"
	"chameleon/internal/profiler"
)

// Seam names — one per faults.Plan hook. A schedule event references a
// seam by name; Compile turns the events into a single armed plan whose
// hooks count consults and fire inside their event windows.
const (
	// SeamRulePanic makes rule evaluation panic (faults.Plan.RuleEvalPanic).
	SeamRulePanic = "rule-panic"
	// SeamCorruptSnapshot corrupts the profile the selector is about to
	// score: magnitude < 1 vanishes it, otherwise its statistics go NaN.
	SeamCorruptSnapshot = "corrupt-snapshot"
	// SeamTornWrite truncates a snapshot file write to Magnitude of its
	// bytes (non-atomic path — the mid-write crash).
	SeamTornWrite = "torn-write"
	// SeamCorruptRecord flips bits in one serialized snapshot record.
	SeamCorruptRecord = "corrupt-record"
	// SeamOverheadSpike inflates one governor cost reading to Magnitude
	// absolute nanos, driving the degradation ladder down.
	SeamOverheadSpike = "overhead-spike"
	// SeamSnapshotIO fails a snapshot file operation (Target filters to
	// "write" or "read"; empty fails both).
	SeamSnapshotIO = "snapshot-io"
	// SeamVerifySkew multiplies the selector's next-verification delay by
	// Magnitude (clamped to ≥1 by the seam itself).
	SeamVerifySkew = "verify-skew"
)

// seamList is every seam in display order; every scenario consults all
// of them.
var seamList = []string{
	SeamRulePanic, SeamCorruptSnapshot, SeamTornWrite, SeamCorruptRecord,
	SeamOverheadSpike, SeamSnapshotIO, SeamVerifySkew,
}

// Seams lists every seam name in display order — the full injection
// surface.
func Seams() []string {
	return append([]string(nil), seamList...)
}

// knownSeam reports whether name is in seamList.
func knownSeam(name string) bool {
	for _, s := range seamList {
		if s == name {
			return true
		}
	}
	return false
}

// Fired is one seam's consult/fire tally for a run.
type Fired struct {
	Consults int64 `json:"consults"`
	Fires    int64 `json:"fires"`
}

// FireLog tallies, per seam, how often the production code consulted the
// seam while armed and how often an event actually fired. The accounting
// auditors use it to demand that every observed loss is explained by a
// fire — and that zero fires means zero loss.
type FireLog struct {
	mu    sync.Mutex
	seams map[string]*seamCounter
}

type seamCounter struct {
	consults atomic.Int64
	fires    atomic.Int64
}

func (l *FireLog) counter(seam string) *seamCounter {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.seams[seam]
	if c == nil {
		c = &seamCounter{}
		l.seams[seam] = c
	}
	return c
}

// Fires reports one seam's fire count so far.
func (l *FireLog) Fires(seam string) int64 { return l.counter(seam).fires.Load() }

// Snapshot returns the per-seam tallies, with every seam that was
// consulted or fired present.
func (l *FireLog) Snapshot() map[string]Fired {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]Fired, len(l.seams))
	for name, c := range l.seams {
		out[name] = Fired{Consults: c.consults.Load(), Fires: c.fires.Load()}
	}
	return out
}

// String renders the tallies sorted by seam name.
func (l *FireLog) String() string {
	snap := l.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d/%d", n, snap[n].Fires, snap[n].Consults)
	}
	return s
}

// window advances one seam's consult counter and returns the first event
// whose [Start, Start+Count) window covers this consult, charging a fire
// when one does. Targeted events only match their target.
func (l *FireLog) window(events []Event, seam, target string) *Event {
	c := l.counter(seam)
	n := c.consults.Add(1)
	for i := range events {
		e := &events[i]
		if e.Seam != seam {
			continue
		}
		if e.Target != "" && target != "" && e.Target != target {
			continue
		}
		if n >= e.Start && n < e.Start+e.Count {
			c.fires.Add(1)
			return e
		}
	}
	return nil
}

// Compile lowers a schedule into an armable faults.Plan plus the FireLog
// its hooks report into. The plan is deterministic: hooks fire purely on
// per-seam consult counts, so the same schedule over the same sequential
// scenario fires identically every run.
func Compile(s Schedule) (*faults.Plan, *FireLog) {
	log := &FireLog{seams: make(map[string]*seamCounter)}
	ev := s.Events
	plan := &faults.Plan{
		RuleEvalPanic: func() (any, bool) {
			if log.window(ev, SeamRulePanic, "") != nil {
				return "chaos: injected rule panic", true
			}
			return nil, false
		},
		CorruptSnapshot: func(ctxKey uint64, snapshot any) any {
			e := log.window(ev, SeamCorruptSnapshot, "")
			if e == nil {
				return snapshot
			}
			if e.Magnitude < 1 {
				return nil // vanished context
			}
			if p, ok := snapshot.(*profiler.Profile); ok && p != nil {
				p.MaxSizeAvg = math.NaN()
				p.FinalSizeAvg = math.NaN()
				p.MaxSizeMax = math.Inf(1)
				return p
			}
			return snapshot
		},
		TornWrite: func(data []byte) ([]byte, bool) {
			e := log.window(ev, SeamTornWrite, "")
			if e == nil {
				return data, false
			}
			frac := e.Magnitude
			if frac <= 0 || frac >= 1 {
				frac = 0.5
			}
			cut := int(float64(len(data)) * frac)
			if cut >= len(data) {
				return data, false
			}
			return data[:cut], true
		},
		CorruptRecord: func(index int, record []byte) ([]byte, bool) {
			if log.window(ev, SeamCorruptRecord, "") == nil {
				return record, false
			}
			mutated := append([]byte(nil), record...)
			for i := len(mutated) / 2; i < len(mutated) && i < len(mutated)/2+32; i++ {
				mutated[i] ^= 0xFF
			}
			return mutated, true
		},
		OverheadSpike: func(source string, nanos int64) (int64, bool) {
			e := log.window(ev, SeamOverheadSpike, source)
			if e == nil {
				return nanos, false
			}
			spike := int64(e.Magnitude)
			if spike <= 0 {
				spike = 2e9
			}
			return spike, true
		},
		SnapshotIO: func(op, path string) (error, bool) {
			if log.window(ev, SeamSnapshotIO, op) == nil {
				return nil, false
			}
			return fmt.Errorf("chaos: injected snapshot %s failure: %s", op, path), true
		},
		VerifySkew: func(ctxKey uint64, delay int64) (int64, bool) {
			e := log.window(ev, SeamVerifySkew, "")
			if e == nil {
				return delay, false
			}
			factor := e.Magnitude
			if factor <= 0 {
				factor = 0.5
			}
			return int64(float64(delay) * factor), true
		},
	}
	return plan, log
}
