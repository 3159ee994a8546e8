package advisor

import (
	"strings"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/heap"
	"chameleon/internal/profiler"
	"chameleon/internal/spec"
)

func snapshotWith(t *testing.T, entries map[string]heap.Footprint, impl spec.Kind) []*profiler.Profile {
	t.Helper()
	tab := alloctx.NewTable()
	p := profiler.New()
	var per []heap.ContextCycle
	for label, f := range entries {
		ctx := tab.Static(label)
		in := p.OnAlloc(ctx, spec.KindHashMap, impl, 16)
		p.OnDeath(in)
		per = append(per, heap.ContextCycle{Slot: ctx.Slot(), Key: ctx.Key(), Footprint: f, Objects: 1})
	}
	p.ObserveCycle(&heap.CycleStats{PerContext: per})
	return p.Snapshot()
}

func TestCompareMatchesContexts(t *testing.T) {
	before := snapshotWith(t, map[string]heap.Footprint{
		"a:1": {Live: 1000, Used: 400},
		"b:1": {Live: 500, Used: 450},
		"c:1": {Live: 100, Used: 90}, // disappears after the fix
	}, spec.KindHashMap)
	after := snapshotWith(t, map[string]heap.Footprint{
		"a:1": {Live: 300, Used: 280},
		"b:1": {Live: 480, Used: 450},
		"d:1": {Live: 50, Used: 50}, // new context in the tuned version
	}, spec.KindArrayMap)

	deltas := Compare(before, after)
	if len(deltas) != 4 {
		t.Fatalf("deltas = %d, want 4", len(deltas))
	}
	// Sorted by gain: a (700), c (100), b (20), d (-50).
	if deltas[0].Context != "a:1" || deltas[0].Gain != 700 {
		t.Fatalf("top delta = %+v", deltas[0])
	}
	if deltas[1].Context != "c:1" || deltas[1].Gain != 100 || deltas[1].After != nil {
		t.Fatalf("removed-context delta = %+v", deltas[1])
	}
	if deltas[3].Context != "d:1" || deltas[3].Gain != -50 || deltas[3].Before != nil {
		t.Fatalf("new-context delta = %+v", deltas[3])
	}
	if pct := deltas[0].GainPct(); pct != 70 {
		t.Fatalf("gain%% = %v", pct)
	}

	text := FormatCompare(deltas, 2)
	if !strings.Contains(text, "a:1") || strings.Contains(text, "b:1") {
		t.Fatalf("top-2 formatting wrong:\n%s", text)
	}
	if !strings.Contains(text, "HashMap -> ArrayMap") {
		t.Fatalf("impl change not annotated:\n%s", text)
	}
}

func TestCompareEmptySides(t *testing.T) {
	deltas := Compare(nil, nil)
	if len(deltas) != 0 {
		t.Fatalf("deltas = %d", len(deltas))
	}
	only := snapshotWith(t, map[string]heap.Footprint{"x:1": {Live: 10}}, spec.KindHashMap)
	d := Compare(only, nil)
	if len(d) != 1 || d[0].Gain != 10 {
		t.Fatalf("one-sided compare wrong: %+v", d)
	}
}
