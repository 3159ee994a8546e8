package chaos

import "fmt"

// Auditor names — the invariant classes a run is judged against. A
// shrunk reproducer records which auditor it reproduces, and replay
// matches outcomes by these names.
const (
	// AuditChecksum: the workload's result checksum must equal the
	// fault-free reference run's. Faults may cost performance and shed
	// profiling; they must never change what the program computes
	// (the PR-2 passivity invariant, under fire).
	AuditChecksum = "checksum"
	// AuditAccounting: every loss is explained. Snapshot records that
	// fail to read back require a persistence fault to have fired, and
	// selector quarantines must equal rollbacks plus panics.
	AuditAccounting = "accounting"
	// AuditNoWedge: nothing is stuck once the faults stop. No leaked
	// deciding claim, the governor ladder back at full after calm, the
	// selector unpaused.
	AuditNoWedge = "no-wedge"
	// AuditContainment: every panic is contained and attributed. No
	// panic escapes to the orchestrator, contained panics never exceed
	// injected ones, and the selector disables itself exactly when the
	// panic budget says so.
	AuditContainment = "containment"
)

// Auditors lists the invariant classes in reporting order.
func Auditors() []string {
	return []string{AuditChecksum, AuditAccounting, AuditNoWedge, AuditContainment}
}

// audit runs every auditor over a collected report. Violations are
// ordered by auditor class, so Result.Outcome is deterministic.
func audit(rep *report) []Violation {
	var out []Violation
	out = append(out, auditChecksum(rep)...)
	out = append(out, auditAccounting(rep)...)
	out = append(out, auditNoWedge(rep)...)
	out = append(out, auditContainment(rep)...)
	return out
}

func violation(auditor, format string, args ...any) Violation {
	return Violation{Auditor: auditor, Detail: fmt.Sprintf(format, args...)}
}

// auditChecksum compares the run's folded workload checksum against the
// fault-free reference.
func auditChecksum(rep *report) []Violation {
	if rep.checksum == rep.reference {
		return nil
	}
	return []Violation{violation(AuditChecksum,
		"workload checksum %#x != fault-free reference %#x: an injected fault leaked into program results",
		rep.checksum, rep.reference)}
}

// persistenceFires sums the fires that can explain snapshot record loss.
func persistenceFires(rep *report) int64 {
	return rep.fires[SeamTornWrite].Fires +
		rep.fires[SeamCorruptRecord].Fires +
		rep.fires[SeamSnapshotIO].Fires
}

// auditAccounting demands that every observed loss traces to an injected
// fault, and that internal counters conserve.
func auditAccounting(rep *report) []Violation {
	var out []Violation

	// Snapshot persistence: damage requires a fired persistence fault.
	lost := rep.snapWritten - rep.snapRead
	damaged := lost != 0 || rep.snapRecErrs > 0 || rep.snapWriteFails > 0 || rep.snapReadFails > 0
	if damaged && persistenceFires(rep) == 0 {
		out = append(out, violation(AuditAccounting,
			"snapshot loss with no persistence fault fired: wrote %d read %d (recErrs %d, writeFails %d, readFails %d)",
			rep.snapWritten, rep.snapRead, rep.snapRecErrs, rep.snapWriteFails, rep.snapReadFails))
	}
	if rep.snapWriteFails > rep.fires[SeamSnapshotIO].Fires {
		out = append(out, violation(AuditAccounting,
			"%d snapshot write failures but only %d snapshot-io fires",
			rep.snapWriteFails, rep.fires[SeamSnapshotIO].Fires))
	}

	// Guarded selector: every quarantine is a rollback or a panic.
	if rep.quarantines != rep.rollbacks+rep.panics {
		out = append(out, violation(AuditAccounting,
			"selector quarantines %d != rollbacks %d + panics %d",
			rep.quarantines, rep.rollbacks, rep.panics))
	}
	return out
}

// auditNoWedge demands liveness once the faults stop.
func auditNoWedge(rep *report) []Violation {
	var out []Violation
	if len(rep.stuckClaims) > 0 {
		out = append(out, violation(AuditNoWedge,
			"selector wedged: %d context(s) still hold a deciding claim at quiescence (first: %#x)",
			len(rep.stuckClaims), rep.stuckClaims[0]))
	}
	if rep.recoverOut {
		out = append(out, violation(AuditNoWedge,
			"governor ladder stuck at tier %q after %d calm ticks (calm streak %d)",
			rep.finalTier, recoverTicks, rep.calm))
	}
	if rep.paused && !rep.recoverOut {
		out = append(out, violation(AuditNoWedge,
			"selector still paused with the governor back at tier %q", rep.finalTier))
	}
	return out
}

// auditContainment demands that panics stay inside the guarded selector
// and are attributed to injections.
func auditContainment(rep *report) []Violation {
	var out []Violation
	if len(rep.escaped) > 0 {
		out = append(out, violation(AuditContainment,
			"%d panic(s) escaped containment (first: %s)", len(rep.escaped), rep.escaped[0]))
	}
	if injected := rep.fires[SeamRulePanic].Fires; rep.panics > injected {
		out = append(out, violation(AuditContainment,
			"selector contained %d panics but only %d were injected: something panicked on its own",
			rep.panics, injected))
	}
	if rep.disabled && rep.panics < rep.panicBudget {
		out = append(out, violation(AuditContainment,
			"selector disabled after %d panics, below the budget of %d", rep.panics, rep.panicBudget))
	}
	if !rep.disabled && rep.panicBudget > 0 && rep.panics >= rep.panicBudget {
		out = append(out, violation(AuditContainment,
			"panic budget exhausted (%d >= %d) but the selector did not disable", rep.panics, rep.panicBudget))
	}
	return out
}
