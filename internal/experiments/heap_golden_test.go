package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/heap"
	"chameleon/internal/profiler"
	"chameleon/internal/workloads"
)

// checkGolden compares got against testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %.300s\nwant: %.300s", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: %d lines, want %d", name, len(gl), len(wl))
	}
}

// TestGoldenHeapStatistics locks every heap statistic the collector feeds
// the rest of the tool: the persisted per-context Table 1 heap columns
// (total/max live, used, core and object counts, and the GC-cycle counts)
// of two seeded workloads, TVLA's Fig. 2 series, its top per-context
// series and its Table 3 peak type breakdown. A change to how the heap
// gathers its statistics must leave all of them byte-identical.
// Regenerate with: go test ./internal/experiments -run TestGolden -update
func TestGoldenHeapStatistics(t *testing.T) {
	for _, w := range []struct {
		name  string
		scale int
	}{{"tvla", 300}, {"pmd", 400}} {
		spec, err := workloads.ByName(w.name)
		if err != nil {
			t.Fatal(err)
		}
		r := Run(spec, workloads.Baseline, w.scale, defaultConfig())
		var buf bytes.Buffer
		if err := profiler.WriteProfiles(&buf, r.Session.Prof.Snapshot()); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, w.name+"_profiles.golden", buf.Bytes())
	}

	spec, err := workloads.ByName("tvla")
	if err != nil {
		t.Fatal(err)
	}
	cfg := seriesConfig()
	cfg.KeepContexts = true
	r := Run(spec, workloads.Baseline, 300, cfg)
	var b strings.Builder
	fmt.Fprintf(&b, "# Fig. 2: cycle liveData collLive collUsed collCore\n")
	for _, p := range r.Session.PotentialSeries() {
		fmt.Fprintf(&b, "%d %d %d %d %d\n", p.Cycle, p.LiveData, p.Collections.Live, p.Collections.Used, p.Collections.Core)
	}
	cycle, dist := PeakTypeDistribution(r.Session)
	fmt.Fprintf(&b, "# Table 3 peak type distribution\n%d %s\n", cycle, heap.FormatTypeDist(dist))
	fmt.Fprintf(&b, "# top context series: cycle live used core objects\n")
	for _, cs := range TopContextSeries(r.Session, 4) {
		fmt.Fprintf(&b, "%s\n", cs.Label)
		for _, p := range cs.Points {
			fmt.Fprintf(&b, "%d %d %d %d %d\n", p.Cycle, p.Footprint.Live, p.Footprint.Used, p.Footprint.Core, p.Objects)
		}
	}
	checkGolden(t, "tvla_heap_series.golden", []byte(b.String()))

	// Every paper workload's peak type breakdown, both variants: the tuned
	// ones allocate most replacement kinds, and their singleton wrappers
	// change kind on promotion.
	b.Reset()
	for _, spec := range workloads.All() {
		for _, v := range []workloads.Variant{workloads.Baseline, workloads.Tuned} {
			r := Run(spec, v, spec.DefaultScale, seriesConfig())
			cycle, dist := PeakTypeDistribution(r.Session)
			fmt.Fprintf(&b, "%s/%v %d %s\n", spec.Name, v, cycle, heap.FormatTypeDist(dist))
		}
	}
	checkGolden(t, "peak_type_dist.golden", []byte(b.String()))
}
