package chaos

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestGenerateDeterministic: the same (seed, scenario, nEvents) must
// always produce the same schedule — the whole replay story rests on it.
func TestGenerateDeterministic(t *testing.T) {
	for _, sc := range Scenarios() {
		a := Generate(42, sc, 6)
		b := Generate(42, sc, 6)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: generation not deterministic:\n%+v\n%+v", sc, a, b)
		}
		if len(a.Events) != 6 {
			t.Fatalf("%s: got %d events, want 6", sc, len(a.Events))
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: generated schedule invalid: %v", sc, err)
		}
	}
	if reflect.DeepEqual(Generate(1, ScenarioPhaseShift, 6), Generate(2, ScenarioPhaseShift, 6)) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestValidateRejects: malformed schedules fail loudly before any run.
func TestValidateRejects(t *testing.T) {
	base := Generate(1, ScenarioPhaseShift, 2)
	cases := []struct {
		name   string
		mutate func(*Schedule)
	}{
		{"bad version", func(s *Schedule) { s.Version = 99 }},
		{"bad scenario", func(s *Schedule) { s.Scenario = "nope" }},
		{"bad seam", func(s *Schedule) { s.Events[0].Seam = "nope" }},
		{"zero start", func(s *Schedule) { s.Events[0].Start = 0 }},
		{"zero count", func(s *Schedule) { s.Events[0].Count = 0 }},
		{"negative magnitude", func(s *Schedule) { s.Events[0].Magnitude = -1 }},
	}
	for _, c := range cases {
		s := base
		s.Events = append([]Event(nil), base.Events...)
		c.mutate(&s)
		if s.Validate() == nil {
			t.Errorf("%s: Validate accepted it", c.name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("unmutated schedule rejected: %v", err)
	}
}

// TestScheduleRoundTrip: the JSON artifact reloads into an identical
// schedule — what -replay depends on.
func TestScheduleRoundTrip(t *testing.T) {
	s := Generate(7, ScenarioPhaseShift, 5)
	s.Violation = AuditNoWedge
	s.Note = "round-trip test"
	path := filepath.Join(t.TempDir(), "sched.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScheduleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip changed the schedule:\n%+v\n%+v", s, got)
	}
}

// TestCompileWindows: hooks fire exactly inside their event windows,
// counted per seam, and targeted events only match their target.
func TestCompileWindows(t *testing.T) {
	s := Schedule{Version: ScheduleVersion, Scenario: ScenarioPhaseShift, Events: []Event{
		{Seam: SeamRulePanic, Start: 3, Count: 2},
		{Seam: SeamSnapshotIO, Start: 1, Count: 2, Target: "write"},
	}}
	plan, log := Compile(s)
	fires := 0
	for i := 1; i <= 6; i++ {
		if _, fire := plan.RuleEvalPanic(); fire {
			fires++
			if i != 3 && i != 4 {
				t.Fatalf("rule-panic fired at consult %d, window is [3,5)", i)
			}
		}
	}
	if fires != 2 {
		t.Fatalf("rule-panic fired %d times, want 2", fires)
	}
	// Targeted event: other operations consume consults but never fire.
	if _, fire := plan.SnapshotIO("read", "snap.json"); fire {
		t.Fatal("targeted snapshot-io fired for the wrong operation")
	}
	if _, fire := plan.SnapshotIO("write", "snap.json"); !fire {
		t.Fatal("targeted snapshot-io did not fire for its operation in-window")
	}
	snap := log.Snapshot()
	if snap[SeamRulePanic].Consults != 6 || snap[SeamRulePanic].Fires != 2 {
		t.Fatalf("rule-panic tally = %+v, want 6 consults / 2 fires", snap[SeamRulePanic])
	}
	if snap[SeamSnapshotIO].Consults != 2 || snap[SeamSnapshotIO].Fires != 1 {
		t.Fatalf("snapshot-io tally = %+v, want 2 consults / 1 fire", snap[SeamSnapshotIO])
	}
}
