package main

import "testing"

// TestParseResults feeds go test output as printed on a 1-CPU host (no
// suffix) and with -cpu 2 (every name ends in "-2"), including
// sub-benchmark names that themselves end in "-<digits>".
func TestParseResults(t *testing.T) {
	for _, c := range []struct {
		procs  int
		out    string
		want   map[string]float64
		allocs float64 // sampled-8's allocs/op in its minimum repetition
	}{{
		procs: 1,
		out: `goos: linux
BenchmarkGovernorTiers/sampled-8         	     100	     52000 ns/op
BenchmarkGovernorTiers/sampled-8         	     100	     51000 ns/op	  123 allocs/op
BenchmarkMapGet/HashMap/n=4              	49134991	         6.733 ns/op
PASS
`,
		want: map[string]float64{
			"BenchmarkGovernorTiers/sampled-8": 51000,
			"BenchmarkMapGet/HashMap/n=4":      6.733,
		},
		allocs: 123,
	}, {
		procs: 2,
		out: `BenchmarkGovernorTiers/sampled-8-2       	     100	     49000 ns/op	  120 allocs/op
BenchmarkGovernorTiers/full-2            	     100	     61000 ns/op
BenchmarkFrontendLatency/workers=4-2     	      10	   1200000 ns/op	  235057 req/s
ok  	chameleon	1.2s
`,
		want: map[string]float64{
			"BenchmarkGovernorTiers/sampled-8":   49000,
			"BenchmarkGovernorTiers/full":        61000,
			"BenchmarkFrontendLatency/workers=4": 1200000,
		},
		allocs: 120,
	}} {
		nsop, metrics := parseResults([]byte(c.out), c.procs)
		if len(nsop) != len(c.want) {
			t.Fatalf("procs=%d: parsed %v, want %v", c.procs, nsop, c.want)
		}
		for name, v := range c.want {
			if nsop[name] != v {
				t.Fatalf("procs=%d: %s = %v, want %v (parsed %v)", c.procs, name, nsop[name], v, nsop)
			}
		}
		if got := metrics["BenchmarkGovernorTiers/sampled-8"]["allocs/op"]; got != c.allocs {
			t.Fatalf("procs=%d: sampled-8 allocs/op = %v, want %v", c.procs, got, c.allocs)
		}
	}
}
