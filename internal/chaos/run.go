package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"chameleon/internal/adaptive"
	"chameleon/internal/core"
	"chameleon/internal/faults"
	"chameleon/internal/governor"
	"chameleon/internal/profiler"
	"chameleon/internal/workloads"
)

// Scenario names. Each scenario drives a guarded online session — online
// selector, overhead governor, snapshot persistence between slices — so
// every fault seam has production code consulting it. Each runs the
// workload of its name (workloads.ByName).
const (
	ScenarioPhaseShift   = "phaseshift"
	ScenarioContextStorm = "contextstorm"
	ScenarioFrontend     = "frontend"
	ScenarioServer       = "server"
)

// Scenarios lists every registered scenario in sweep order.
func Scenarios() []string {
	return []string{ScenarioPhaseShift, ScenarioContextStorm, ScenarioFrontend, ScenarioServer}
}

// scenarioSpec is one registered scenario: its name and default scale.
type scenarioSpec struct {
	name         string
	defaultScale int
}

// slices is how many workload slices one run interleaves with governor
// ticks and snapshot persistence cycles.
const slices = 4

func scenarioByName(name string) (scenarioSpec, error) {
	for _, s := range scenarioSpecs() {
		if s.name == name {
			return s, nil
		}
	}
	return scenarioSpec{}, fmt.Errorf("chaos: unknown scenario %q (have %v)", name, Scenarios())
}

func scenarioSpecs() []scenarioSpec {
	return []scenarioSpec{
		{ScenarioPhaseShift, 16},
		{ScenarioContextStorm, 4},
		{ScenarioFrontend, 8},
		{ScenarioServer, 12},
	}
}

// Violation is one invariant breach found by an auditor.
type Violation struct {
	// Auditor names the invariant class (Audit* constants).
	Auditor string `json:"auditor"`
	// Detail states what was observed vs expected.
	Detail string `json:"detail"`
}

// Result is one schedule's run outcome.
type Result struct {
	Schedule   Schedule         `json:"schedule"`
	Checksum   uint64           `json:"checksum"`
	Reference  uint64           `json:"reference"`
	Fires      map[string]Fired `json:"fires"`
	Violations []Violation      `json:"violations,omitempty"`
}

// Outcome is the auditor of the first violation, or "" when the run
// passed — the value replay compares against Schedule.Violation.
func (r *Result) Outcome() string {
	if len(r.Violations) == 0 {
		return ""
	}
	return r.Violations[0].Auditor
}

// HasViolation reports whether any violation came from the named auditor.
func (r *Result) HasViolation(auditor string) bool {
	for _, v := range r.Violations {
		if v.Auditor == auditor {
			return true
		}
	}
	return false
}

// report carries every probe the auditors read, collected by the
// orchestrator as the run progresses.
type report struct {
	schedule  Schedule
	checksum  uint64
	reference uint64
	fires     map[string]Fired
	escaped   []string // panics that escaped containment (recovered by the orchestrator)

	// Snapshot persistence accounting.
	snapWritten    int64 // records serialized by successful writes
	snapRead       int64 // records read back clean
	snapRecErrs    int64 // records reported damaged on readback
	snapWriteFails int64 // write cycles that returned an error
	snapReadFails  int64 // readback cycles that returned a stream-level error

	// Selector probes (taken at quiescence, after recovery).
	stuckClaims []uint64
	verifies    int64
	rollbacks   int64
	quarantines int64
	panics      int64
	disabled    bool
	paused      bool
	panicBudget int64

	// Governor probes.
	finalTier  governor.Tier
	calm       int
	recoverOut bool // recovery loop gave up before TierFull
}

// Harness runs schedules and caches fault-free reference checksums per
// (scenario, scale) so the checksum auditor compares against a run that
// provably had no plan armed.
type Harness struct {
	mu   sync.Mutex
	refs map[string]uint64
}

// NewHarness builds an empty harness.
func NewHarness() *Harness {
	return &Harness{refs: make(map[string]uint64)}
}

// Reference returns the fault-free checksum for one scenario/scale,
// computing and caching it on first use.
func (h *Harness) Reference(scenario string, scale int) (uint64, error) {
	key := fmt.Sprintf("%s/%d", scenario, scale)
	h.mu.Lock()
	if ref, ok := h.refs[key]; ok {
		h.mu.Unlock()
		return ref, nil
	}
	h.mu.Unlock()
	rep, err := h.executeWorkload(Schedule{Version: ScheduleVersion, Scenario: scenario, Scale: scale})
	if err != nil {
		return 0, err
	}
	h.mu.Lock()
	h.refs[key] = rep.checksum
	h.mu.Unlock()
	return rep.checksum, nil
}

// Run executes one schedule and audits the outcome. The fault-free
// reference for the schedule's scenario is computed first (never under an
// armed plan), then the schedule runs and every auditor inspects the
// collected report.
func (h *Harness) Run(s Schedule) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	spec, err := scenarioByName(s.Scenario)
	if err != nil {
		return nil, err
	}
	scale := s.Scale
	if scale <= 0 {
		scale = spec.defaultScale
		s.Scale = scale
	}
	ref, err := h.Reference(s.Scenario, scale)
	if err != nil {
		return nil, fmt.Errorf("chaos: reference run: %w", err)
	}
	rep, err := h.executeWorkload(s)
	if err != nil {
		return nil, err
	}
	rep.reference = ref
	res := &Result{
		Schedule:   s,
		Checksum:   rep.checksum,
		Reference:  ref,
		Fires:      rep.fires,
		Violations: audit(rep),
	}
	return res, nil
}

// fold mixes one slice checksum into the run checksum. Plain xor would
// cancel identical slices (every slice reruns the same deterministic
// driver), so fold multiplies first — FNV-style.
func fold(h, v uint64) uint64 { return (h ^ v) * 0x100000001b3 }

// guard runs fn and converts an escaping panic into an escaped-panic
// record: nothing in a chaos run is allowed to take the harness down.
func guard(rep *report, name string, fn func()) {
	defer func() {
		if r := recover(); r != nil {
			rep.escaped = append(rep.escaped, fmt.Sprintf("%s: %v", name, r))
		}
	}()
	fn()
}

// onlineOptions are the guarded-selector knobs every scenario runs with:
// small evidence thresholds so short runs actually decide, verify, roll
// back and quarantine.
func onlineOptions() adaptive.Options {
	return adaptive.Options{
		MinEvidence:       8,
		VerifyEvery:       16,
		MinWindowEvidence: 2,
		QuarantineBackoff: 32,
		BackoffMax:        256,
		PanicBudget:       8,
	}
}

// tickElapsed is the fixed wall-time the governor is told passed between
// explicit ticks. Large on purpose: the real profiling nanos accrued by a
// short slice read as far below budget against one second, so the ladder
// only ever steps down when a spike event fires — keeping runs
// deterministic despite the meter measuring real time.
const tickElapsed = time.Second

// recoverTicks bounds the post-run calm loop proving ladder recovery.
const recoverTicks = 64

// executeWorkload runs one schedule (or, for empty schedules, a
// fault-free reference) and collects the report: slices of the workload
// interleaved with governor ticks and snapshot write/readback cycles,
// then fault disarm, then a calm recovery phase.
func (h *Harness) executeWorkload(s Schedule) (*report, error) {
	spec, err := workloads.ByName(s.Scenario)
	if err != nil {
		return nil, err
	}
	rep := &report{schedule: s}
	dir, err := os.MkdirTemp("", "chameleon-chaos-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "snap.json")

	sess := core.NewSession(core.Config{
		Online:         true,
		OnlineOptions:  onlineOptions(),
		OverheadBudget: 0.05,
		GovernorOptions: governor.Config{
			RecoverTicks: 2,
		},
	})
	rt := sess.Runtime()
	scale := s.Scale
	sliceScale := scale / slices
	if sliceScale < 1 {
		sliceScale = 1
	}
	plan, log := Compile(s)
	if len(s.Events) > 0 {
		faults.Arm(plan)
	}
	for i := 0; i < slices; i++ {
		guard(rep, fmt.Sprintf("slice %d", i), func() {
			rep.checksum = fold(rep.checksum, spec.Run(rt, workloads.Baseline, sliceScale))
		})
		guard(rep, fmt.Sprintf("governor tick %d", i), func() {
			sess.Governor.Tick(tickElapsed)
		})
		guard(rep, fmt.Sprintf("snapshot cycle %d", i), func() {
			h.snapshotCycle(rep, sess, snapPath)
		})
	}
	faults.Disarm()

	// Recovery: with the plan disarmed and no work running, every tick
	// reads as calm; the ladder must walk back to full within the bound.
	for i := 0; i < recoverTicks && sess.Governor.Tier() != governor.TierFull; i++ {
		sess.Governor.Tick(tickElapsed)
	}
	rep.recoverOut = sess.Governor.Tier() != governor.TierFull
	sess.FinalGC()

	rep.fires = log.Snapshot()
	collectSelector(rep, sess.Selector)
	rep.finalTier = sess.Governor.Tier()
	rep.calm = sess.Governor.Calm()
	return rep, nil
}

// snapshotCycle persists the profiler's current snapshot and reads it
// back, recording the record counts the accounting auditor balances
// against injected persistence faults.
func (h *Harness) snapshotCycle(rep *report, sess *core.Session, path string) {
	profiles := sess.Prof.Snapshot()
	if err := profiler.WriteProfilesFile(path, profiles); err != nil {
		rep.snapWriteFails++
		return
	}
	rep.snapWritten += int64(len(profiles))
	read, recErrs, err := profiler.ReadProfilesFileReport(path)
	if err != nil {
		rep.snapReadFails++
		return
	}
	rep.snapRead += int64(len(read))
	rep.snapRecErrs += int64(len(recErrs))
}

// collectSelector snapshots the guarded-adaptation probes at quiescence.
func collectSelector(rep *report, sel *adaptive.Selector) {
	rep.stuckClaims = sel.StuckClaims()
	rep.verifies = sel.Verifies()
	rep.rollbacks = sel.Rollbacks()
	rep.quarantines = sel.Quarantines()
	rep.panics = sel.Panics()
	rep.disabled, _ = sel.Disabled()
	rep.paused = sel.Paused()
	rep.panicBudget = onlineOptions().PanicBudget
}
