// Package chaos is the deterministic fault-schedule harness
// (docs/ROBUSTNESS.md "Chaos orchestration"). Hand-written fault tests
// exercise each seam in internal/faults one at a time; chaos generates
// seeded pseudo-random *compositions* of them — a torn write during a
// governor degradation during a rule-panic storm — runs a registered
// workload scenario under each composition, and audits system-level
// invariants after every run: the workload checksum must match a
// fault-free reference, accounting must conserve (every dropped record
// explained by an injected fault), nothing may wedge (no leaked deciding
// claim, the governor ladder recovers after calm), and every panic must
// be contained. A violated invariant is shrunk (delta debugging over
// events, then over event parameters) to a minimal reproducer schedule
// that replays deterministically from its JSON form.
//
// Determinism is by construction: events trigger on per-seam consult
// counts, not wall time; scenarios run single-threaded; and the governor
// is driven by explicit ticks with fixed elapsed times, so the only
// nondeterministic input — real profiling nanos — is measured against an
// elapsed window large enough that it reads as calm in every run.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// ScheduleVersion is the replay-format version stamped into artifacts; a
// reader refuses other versions rather than silently replaying a schedule
// under different semantics.
const ScheduleVersion = 1

// Event is one fault activation: the named seam fires for Count
// consecutive consults starting at the Start-th consult (1-based) counted
// while the schedule is armed. Magnitude and Target refine the fault
// per seam (see the seam catalogue in seams.go).
type Event struct {
	// Seam names the fault seam (Seam* constants).
	Seam string `json:"seam"`
	// Start is the 1-based seam consult count at which the event begins.
	Start int64 `json:"start"`
	// Count is how many consults the event fires for (min 1).
	Count int64 `json:"count"`
	// Magnitude is the seam-specific strength parameter (torn fraction,
	// absolute spike nanos, skew factor; 0 picks the seam default).
	Magnitude float64 `json:"magnitude,omitempty"`
	// Target filters the fault to one target where the seam is targeted:
	// "write"/"read" for snapshot-io. Empty matches every target.
	Target string `json:"target,omitempty"`
}

// String renders one event compactly for logs.
func (e Event) String() string {
	s := fmt.Sprintf("%s@%d+%d", e.Seam, e.Start, e.Count)
	if e.Magnitude != 0 {
		s += fmt.Sprintf("×%g", e.Magnitude)
	}
	if e.Target != "" {
		s += fmt.Sprintf("(%s)", e.Target)
	}
	return s
}

// Schedule is a replayable fault composition: the scenario to drive, the
// events to inject, and — for shrunk reproducers and committed known-good
// schedules — the outcome replay must reproduce.
type Schedule struct {
	Version  int    `json:"version"`
	Seed     uint64 `json:"seed"`
	Scenario string `json:"scenario"`
	// Scale overrides the scenario's default scale when positive.
	Scale  int     `json:"scale,omitempty"`
	Events []Event `json:"events"`
	// Violation is the auditor expected to fire on replay ("" = the run
	// must pass every auditor). Replay exits nonzero when the observed
	// outcome differs — so a shrunk reproducer that stops reproducing and
	// a known-good schedule that starts failing are both loud.
	Violation string `json:"violation,omitempty"`
	// Note is free-form provenance ("shrunk from seed 17", etc.).
	Note string `json:"note,omitempty"`
}

// Validate rejects schedules that cannot mean what they say.
func (s Schedule) Validate() error {
	if s.Version != ScheduleVersion {
		return fmt.Errorf("chaos: schedule version %d, want %d", s.Version, ScheduleVersion)
	}
	if _, err := scenarioByName(s.Scenario); err != nil {
		return err
	}
	for i, e := range s.Events {
		if !knownSeam(e.Seam) {
			return fmt.Errorf("chaos: event %d: unknown seam %q", i, e.Seam)
		}
		if e.Start < 1 {
			return fmt.Errorf("chaos: event %d: start %d < 1", i, e.Start)
		}
		if e.Count < 1 {
			return fmt.Errorf("chaos: event %d: count %d < 1", i, e.Count)
		}
		if e.Magnitude < 0 {
			return fmt.Errorf("chaos: event %d: negative magnitude", i)
		}
	}
	return nil
}

// rng is the same xorshift family the workloads use: deterministic,
// allocation-free, and independent of math/rand's global state.
type rng uint64

func newRng(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r := rng(seed)
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// seamStartMax is the per-seam upper bound for generated event starts,
// sized to each seam's typical consult volume in one chaos run — a
// rule-panic seam is consulted a handful of times (once per decide), a
// corrupt-record seam once per persisted record — so generated events
// land inside windows the run actually reaches instead of being inert.
var seamStartMax = map[string]int{
	SeamRulePanic:       6,
	SeamCorruptSnapshot: 12,
	SeamTornWrite:       4,
	SeamCorruptRecord:   48,
	SeamOverheadSpike:   16,
	SeamSnapshotIO:      8,
	SeamVerifySkew:      10,
}

// Generate builds the seeded pseudo-random schedule for one scenario:
// nEvents events drawn uniformly over the seam list, with
// starts spread across the consult range each seam actually reaches and
// seam-appropriate magnitudes. The same (seed, scenario, nEvents) always
// yields the same schedule.
func Generate(seed uint64, scenario string, nEvents int) Schedule {
	r := newRng(seed ^ 0xc4ce_b9fe_1a85_ec53)
	s := Schedule{Version: ScheduleVersion, Seed: seed, Scenario: scenario}
	for i := 0; i < nEvents; i++ {
		seam := seamList[r.intn(len(seamList))]
		ev := Event{
			Seam:  seam,
			Start: int64(1 + r.intn(seamStartMax[seam])),
			Count: int64(1 + r.intn(6)),
		}
		switch seam {
		case SeamTornWrite:
			ev.Magnitude = 0.1 + float64(r.intn(8))/10 // keep 10%..80% of the bytes
		case SeamOverheadSpike:
			// Absolute injected nanos: large enough that one spiked tick
			// reads far over budget regardless of real timing noise.
			ev.Magnitude = float64(1+r.intn(4)) * 1e9
		case SeamVerifySkew:
			ev.Magnitude = []float64{0.25, 0.5, 2, 4}[r.intn(4)]
		case SeamSnapshotIO:
			ev.Target = []string{"", "write", "read"}[r.intn(3)]
		}
		s.Events = append(s.Events, ev)
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].Start < s.Events[j].Start })
	return s
}

// WriteFile persists a schedule as an indented JSON artifact.
func (s Schedule) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadScheduleFile loads and validates a replay artifact.
func ReadScheduleFile(path string) (Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Schedule{}, err
	}
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return Schedule{}, fmt.Errorf("chaos: parsing %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, fmt.Errorf("chaos: %s: %w", path, err)
	}
	return s, nil
}
