package faults

import (
	"sync"
	"testing"
)

func TestDisarmedHooksAreNoOps(t *testing.T) {
	Disarm()
	if Armed() {
		t.Fatal("armed with no plan")
	}
	if v, fire := RuleEvalPanic(); fire || v != nil {
		t.Fatalf("disarmed RuleEvalPanic fired: %v", v)
	}
	if p := CorruptSnapshot(1, nil); p != nil {
		t.Fatalf("disarmed CorruptSnapshot returned %v", p)
	}
}

func TestPanicOnceFiresExactly(t *testing.T) {
	hook := PanicOnce("boom", 2)
	fires := 0
	for i := 0; i < 10; i++ {
		if v, fire := hook(); fire {
			fires++
			if v != "boom" {
				t.Fatalf("panic value = %v", v)
			}
		}
	}
	if fires != 2 {
		t.Fatalf("fired %d times, want 2", fires)
	}
}

func TestArmDisarmConcurrent(t *testing.T) {
	defer Disarm()
	plan := &Plan{RuleEvalPanic: PanicOnce("x", 1<<30)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				Arm(plan)
				RuleEvalPanic()
				CorruptSnapshot(uint64(i), nil)
				Disarm()
			}
		}()
	}
	wg.Wait()
}

// recordingTB is a minimal TB that runs cleanups like testing.T does, so
// the ArmT contract can be tested without nesting real tests.
type recordingTB struct {
	helper   bool
	cleanups []func()
}

func (r *recordingTB) Helper()           { r.helper = true }
func (r *recordingTB) Cleanup(fn func()) { r.cleanups = append(r.cleanups, fn) }
func (r *recordingTB) runCleanups() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
}

// TestArmTDisarmsOnCleanup: ArmT arms immediately and registers a Disarm
// cleanup, so a fault plan can never leak past the test that armed it —
// the cross-test-leakage fix.
func TestArmTDisarmsOnCleanup(t *testing.T) {
	defer Disarm()
	tb := &recordingTB{}
	ArmT(tb, &Plan{RuleEvalPanic: func() (any, bool) { return "leak-check", true }})
	if !Armed() {
		t.Fatal("ArmT did not arm")
	}
	if _, fire := RuleEvalPanic(); !fire {
		t.Fatal("armed hook did not fire")
	}
	tb.runCleanups()
	if Armed() {
		t.Fatal("plan leaked past the test's cleanup phase")
	}
	if _, fire := RuleEvalPanic(); fire {
		t.Fatal("hook still firing after cleanup")
	}
}

// TestNewHooksDisarmedAreNoOps: the persistence and governor hooks follow
// the registry's disarmed-is-free contract.
func TestNewHooksDisarmedAreNoOps(t *testing.T) {
	Disarm()
	if _, ok := TornWrite([]byte("x")); ok {
		t.Fatal("disarmed TornWrite fired")
	}
	if _, ok := CorruptRecord(0, []byte("x")); ok {
		t.Fatal("disarmed CorruptRecord fired")
	}
	if _, ok := OverheadSpike("flush", 7); ok {
		t.Fatal("disarmed OverheadSpike fired")
	}
	if err, ok := SnapshotIO("write", "x.json"); ok || err != nil {
		t.Fatal("disarmed SnapshotIO fired")
	}
	if d, ok := VerifySkew(1, 64); ok || d != 64 {
		t.Fatalf("disarmed VerifySkew altered the delay: %d", d)
	}
}

// TestVerifySkewClampsToOne: skew may reorder verifications but can never
// schedule one zero-or-negative allocations away (that would wedge the
// claim machinery on the next allocation forever).
func TestVerifySkewClampsToOne(t *testing.T) {
	ArmT(t, &Plan{VerifySkew: func(uint64, int64) (int64, bool) { return -100, true }})
	d, fire := VerifySkew(7, 64)
	if !fire || d != 1 {
		t.Fatalf("VerifySkew(-100) = (%d, %v), want clamped (1, true)", d, fire)
	}
}

// TestArmPanicsOnOverlap: arming a second, different plan over a live one
// must fail loudly — two overlapping fault-injection tests silently
// replacing each other's hooks is exactly the cross-test invalidation the
// package doc forbids. Re-arming the identical plan stays a no-op.
func TestArmPanicsOnOverlap(t *testing.T) {
	defer Disarm()
	a, b := &Plan{}, &Plan{}
	Arm(a)
	Arm(a) // identical plan: idempotent, no panic
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Arm silently replaced an armed plan")
			}
		}()
		Arm(b)
	}()
	Disarm()
	Arm(b) // after Disarm the slot is free again
	if !Armed() {
		t.Fatal("Arm after Disarm did not arm")
	}
}
