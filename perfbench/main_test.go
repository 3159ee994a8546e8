package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestSameSeedSameTraffic: the generator is a pure function of the seed.
func TestSameSeedSameTraffic(t *testing.T) {
	for _, shapes := range [][]shape{offlineShapes, onlineShapes} {
		a, b, c := genProgram(7, shapes), genProgram(7, shapes), genProgram(8, shapes)
		if a.digest() != b.digest() {
			t.Fatal("same seed, different op streams")
		}
		if ra, rb := a.reference(), b.reference(); !equalSums(ra, rb) {
			t.Fatalf("same seed, different reference checksums: %x vs %x", ra, rb)
		}
		if a.digest() == c.digest() {
			t.Fatal("different seeds, same op stream")
		}
		if equalSums(a.reference(), c.reference()) {
			t.Fatal("different seeds, same reference checksums")
		}
	}
	sa, sb, sc := genServe(7), genServe(7), genServe(8)
	if sa.ref != sb.ref || !equalRequests(sa.reqs, sb.reqs) {
		t.Fatal("serve: same seed, different requests or checksum")
	}
	if sa.ref == sc.ref || equalRequests(sa.reqs, sc.reqs) {
		t.Fatal("serve: different seeds, same requests or checksum")
	}
}

func equalSums(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalRequests(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRuntimesAgree: every runtime configuration computes the reference
// result, including a plan compiled from a profiled pass.
func TestRuntimesAgree(t *testing.T) {
	plain := config{}
	for _, seed := range []uint64{1, 2} {
		for _, shapes := range [][]shape{offlineShapes, onlineShapes} {
			b := newBatch(seed, shapes, offlineConfig)
			profiled := b.pass(offlineConfig, nil)
			if profiled.plan == nil || profiled.plan.Len() == 0 {
				t.Fatalf("seed %d: profiled pass produced no plan", seed)
			}
			planned := config{heap: true, plan: profiled.plan}
			for name, cfg := range map[string]config{
				"plain": plain, "profiled": offlineConfig, "online": onlineConfig,
				"online-static": serveConfig, "planned": planned, "no-selection": noSelection,
			} {
				if pr := b.pass(cfg, nil); !pr.ok {
					t.Errorf("seed %d, %d streams, %s: checksum differs from the reference", seed, len(shapes), name)
				}
			}
			if !profiled.ok {
				t.Errorf("seed %d: profiled pass checksum differs from the reference", seed)
			}
		}
		sv := newServe(seed)
		for name, cfg := range map[string]config{"plain": plain, "online": serveConfig, "no-selection": noSelection} {
			if pr := sv.pass(cfg, nil); !pr.ok {
				t.Errorf("serve seed %d, %s: checksum differs from the reference", seed, name)
			}
		}
	}
}

// TestOnlineAutoInternsEveryCallSite: dynamic capture sees one context per
// call site of the pool.
func TestOnlineAutoInternsEveryCallSite(t *testing.T) {
	w, _ := workloadByName("online-auto")
	pr := w.prepare(3).pass(onlineConfig, nil)
	if !pr.ok {
		t.Fatal("online-auto pass checksum differs from the reference")
	}
	sites := int(numFamilies) * sitesPerFamily
	if n := pr.sess.Contexts.Len(); n < sites {
		t.Fatalf("online-auto interned %d dynamic contexts, want at least %d (one per call site)", n, sites)
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON: the registry, the workloads and what a
// run prints all agree with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the registry %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		r := endToEnd[i]
		if m.Name != r.name || m.Unit != r.unit || m.Better != r.better || m.Bound != r.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, registry %+v", i, m, r)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the registry %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		r := perLayer[i]
		if m.Name != r.name || m.Unit != r.unit || m.Better != r.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, registry %+v", i, m, r)
		}
	}

	want := map[string][]string{}
	for _, m := range bf.EndToEnd {
		want["0"] = append(want["0"], m.Name)
	}
	for _, m := range bf.PerLayer {
		want["1"] = append(want["1"], m.Name)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "5", "--seconds", "0.3", "--trace", trace}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.name, trace, code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			got := sortedKeys(res.Metrics)
			exp := append([]string(nil), want[trace]...)
			sort.Strings(exp)
			if strings.Join(got, ",") != strings.Join(exp, ",") {
				t.Errorf("%s trace %s: printed metrics %v, BENCHMARK.json %v", w.name, trace, got, exp)
			}
			if trace == "0" {
				for name, v := range res.Metrics {
					if v.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
					}
				}
			}
		}
	}
}

// TestBadArguments: usage errors exit 2 and print no result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-shared", "--trace", "2"},
		{"--workload", "serve-shared", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if strings.Contains(out.String(), `"metrics"`) {
			t.Errorf("%v: printed a result", args)
		}
	}
}

// TestBlockQuantilesIgnoreASlowStretch: a slow stretch covering two of five
// blocks moves the run's plain p90 but not the median of block p90s.
func TestBlockQuantilesIgnoreASlowStretch(t *testing.T) {
	xs := make([]float64, 5*passBlock+passBlock/2) // the short tail joins the last block
	for i := range xs {
		xs[i] = 10
		if i < 2*passBlock {
			xs[i] = 50
		}
	}
	blocks := blockQuantiles(xs, 0.9, passBlock)
	if len(blocks) != 5 {
		t.Fatalf("%d blocks, want 5", len(blocks))
	}
	if got := median(blocks); got != 10 {
		t.Errorf("median of block p90s = %v, want 10", got)
	}
	if got := quantile(append([]float64(nil), xs...), 0.9); got != 50 {
		t.Errorf("plain p90 = %v, want 50 (the slow stretch)", got)
	}
	if got := blockQuantiles(xs[:3], 0.9, passBlock); len(got) != 1 {
		t.Errorf("%d blocks for 3 passes, want 1", len(got))
	}
}
