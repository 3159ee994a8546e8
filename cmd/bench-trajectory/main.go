// Command bench-trajectory runs the repo's headline benchmarks and
// writes their numbers to a JSON file (BENCH_pr<N>.json by convention),
// so successive PRs can diff the performance trajectory of the profiling
// hot path. CI runs it with -benchtime 1x as a smoke and uploads the JSON
// as an artifact; locally, run with a real benchtime and name a new file
// (-out is required, so a committed BENCH file is never overwritten by
// default):
//
//	go run ./cmd/bench-trajectory -benchtime 0.3s -count 3 -out BENCH_pr<N>.json
//
// The minimum ns/op across -count repetitions is kept per benchmark (the
// usual way to strip scheduler noise from single-machine runs); custom
// metrics (req/s, latency quantiles, allocs/op, ...) are taken from the
// same repetition that produced the minimum.
//
// After the run, the fresh numbers are compared against the latest
// committed BENCH_pr*.json and a per-benchmark delta table is printed,
// flagging regressions above 10%. The comparison is advisory (exit code
// stays 0): machines differ between PRs, so the table is review input,
// not a gate.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// headline is the benchmark set the trajectory tracks, as one -bench regex.
const headline = "BenchmarkPerInstanceTracking|BenchmarkMapGet|BenchmarkListAppend|BenchmarkAutoOverhead|BenchmarkConcurrentServer|BenchmarkGovernorTiers|BenchmarkFrontendLatency|BenchmarkFrontendTiers"

// resultLine matches one `go test -bench` result up to the iteration
// count, e.g. "BenchmarkMapGet/HashMap/n=4-8   49134991   6.733 ns/op";
// the remainder of the line is parsed as value/unit metric pairs.
var resultLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

func main() {
	var (
		benchtime = flag.String("benchtime", "1x", "go test -benchtime value (1x = smoke)")
		count     = flag.Int("count", 1, "repetitions; the minimum ns/op is kept")
		out       = flag.String("out", "", "output JSON path (required)")
		bench     = flag.String("bench", headline, "benchmark selection regex")
		baseline  = flag.String("baseline", "", "BENCH_pr*.json to diff against (default: latest committed, excluding -out)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "bench-trajectory: -out is required (e.g. -out BENCH_pr<N>.json)")
		os.Exit(2)
	}

	// Pin the child's GOMAXPROCS so the "-N" suffix go test appends to
	// every benchmark name is known exactly (and absent when N is 1).
	procs := runtime.GOMAXPROCS(0)
	args := []string{"test", "-run", "^$",
		"-bench", *bench,
		"-benchtime", *benchtime,
		"-count", strconv.Itoa(*count),
		"-cpu", strconv.Itoa(procs),
		"."}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-trajectory: go %v: %v\n", args, err)
		os.Exit(1)
	}

	nsop, metrics := parseResults(raw, procs)
	if len(nsop) == 0 {
		fmt.Fprintln(os.Stderr, "bench-trajectory: no benchmark results parsed")
		os.Exit(1)
	}

	// Deterministic output: sorted keys, stable shape.
	names := make([]string, 0, len(nsop))
	for n := range nsop {
		names = append(names, n)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	fmt.Fprintf(&buf, "  %q: %q,\n", "benchtime", *benchtime)
	fmt.Fprintf(&buf, "  %q: %d,\n", "count", *count)
	buf.WriteString("  \"ns_per_op\": {\n")
	for i, n := range names {
		comma := ","
		if i == len(names)-1 {
			comma = ""
		}
		fmt.Fprintf(&buf, "    %q: %g%s\n", n, nsop[n], comma)
	}
	buf.WriteString("  },\n")
	buf.WriteString("  \"metrics\": {\n")
	withMetrics := make([]string, 0, len(metrics))
	for _, n := range names {
		if len(metrics[n]) > 0 {
			withMetrics = append(withMetrics, n)
		}
	}
	for i, n := range withMetrics {
		units := make([]string, 0, len(metrics[n]))
		for u := range metrics[n] {
			units = append(units, u)
		}
		sort.Strings(units)
		fmt.Fprintf(&buf, "    %q: {", n)
		for j, u := range units {
			if j > 0 {
				buf.WriteString(", ")
			}
			fmt.Fprintf(&buf, "%q: %g", u, metrics[n][u])
		}
		comma := ","
		if i == len(withMetrics)-1 {
			comma = ""
		}
		fmt.Fprintf(&buf, "}%s\n", comma)
	}
	buf.WriteString("  }\n}\n")

	// Sanity: the file must round-trip as JSON.
	var chk map[string]any
	if err := json.Unmarshal(buf.Bytes(), &chk); err != nil {
		fmt.Fprintf(os.Stderr, "bench-trajectory: generated invalid JSON: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench-trajectory: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("bench-trajectory: wrote %d benchmarks to %s\n", len(names), *out)

	printDelta(*baseline, *out, nsop)
}

// parseResults reads `go test -bench` output produced with -cpu procs. It
// keeps the minimum ns/op per benchmark, with the custom metrics of the
// repetition that produced it, and names each benchmark without the
// "-procs" suffix go test appends (none when procs is 1), so names such
// as "GovernorTiers/sampled-8" survive intact on every host.
func parseResults(raw []byte, procs int) (nsop map[string]float64, metrics map[string]map[string]float64) {
	nsop = map[string]float64{}
	metrics = map[string]map[string]float64{}
	suffix := ""
	if procs > 1 {
		suffix = "-" + strconv.Itoa(procs)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := resultLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name, rest := strings.TrimSuffix(m[1], suffix), parseMetrics(m[2])
		v, ok := rest["ns/op"]
		if !ok {
			continue
		}
		if cur, seen := nsop[name]; !seen || v < cur {
			nsop[name] = v
			delete(rest, "ns/op")
			if len(rest) > 0 {
				metrics[name] = rest
			}
		}
	}
	return nsop, metrics
}

// parseMetrics splits the tail of a benchmark line into value/unit pairs
// ("6.733 ns/op  235057 req/s" -> {"ns/op": 6.733, "req/s": 235057}).
func parseMetrics(tail string) map[string]float64 {
	fields := strings.Fields(tail)
	out := make(map[string]float64, len(fields)/2)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			break // not a metric pair; stop at the first non-conforming token
		}
		out[fields[i+1]] = v
	}
	return out
}

// printDelta compares fresh ns/op numbers against a committed baseline
// file and prints a per-benchmark table, flagging >10% regressions. The
// comparison is informational only — hardware differs across PRs — so it
// never fails the run.
func printDelta(baseline, out string, fresh map[string]float64) {
	if baseline == "" {
		baseline = latestBenchFile(out)
	}
	if baseline == "" {
		return
	}
	raw, err := os.ReadFile(baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-trajectory: baseline %s: %v\n", baseline, err)
		return
	}
	var prev struct {
		NsPerOp map[string]float64 `json:"ns_per_op"`
	}
	if err := json.Unmarshal(raw, &prev); err != nil || len(prev.NsPerOp) == 0 {
		fmt.Fprintf(os.Stderr, "bench-trajectory: baseline %s: unusable (%v)\n", baseline, err)
		return
	}

	names := make([]string, 0, len(fresh))
	for n := range fresh {
		if _, ok := prev.NsPerOp[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Printf("delta vs %s: no overlapping benchmarks\n", baseline)
		return
	}
	regressions := 0
	fmt.Printf("\ndelta vs %s (>+10%% flagged; advisory, different machines differ):\n", baseline)
	fmt.Printf("  %-64s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, n := range names {
		old, cur := prev.NsPerOp[n], fresh[n]
		pct := 100 * (cur - old) / old
		flag := ""
		if pct > 10 {
			flag = "  REGRESSION"
			regressions++
		}
		fmt.Printf("  %-64s %14.0f %14.0f %+7.1f%%%s\n", n, old, cur, pct, flag)
	}
	if regressions > 0 {
		fmt.Printf("bench-trajectory: %d benchmark(s) regressed >10%% vs %s (advisory)\n", regressions, baseline)
	}
}

// latestBenchFile finds the highest-numbered committed BENCH_pr<N>.json,
// skipping the file this run is about to write.
func latestBenchFile(out string) string {
	matches, _ := filepath.Glob("BENCH_pr*.json")
	re := regexp.MustCompile(`^BENCH_pr(\d+)\.json$`)
	best, bestN := "", -1
	outAbs, _ := filepath.Abs(out)
	for _, f := range matches {
		fAbs, _ := filepath.Abs(f)
		if fAbs == outAbs {
			continue
		}
		m := re.FindStringSubmatch(filepath.Base(f))
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		if n > bestN {
			bestN, best = n, f
		}
	}
	return best
}
