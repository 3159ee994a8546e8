package workloads

import (
	"testing"

	"chameleon/internal/collections"
)

// The frontend checksum must be a pure function of the request stream:
// identical for every worker count, even though workers race on the shared
// hot structures.
func TestFrontendChecksumScheduleIndependent(t *testing.T) {
	want := RunFrontend(collections.Plain(), Baseline, 40)
	if want == 0 {
		t.Fatal("zero checksum")
	}
	for _, workers := range []int{2, 4, 8} {
		if got := RunFrontendWorkers(collections.Plain(), 40, workers); got != want {
			t.Fatalf("workers=%d: checksum %#x, want %#x", workers, got, want)
		}
	}
}

// FrontendRun must account for every request and produce ordered latency
// quantiles from the merged histogram.
func TestFrontendRunMeasurements(t *testing.T) {
	res := FrontendRun(collections.Plain(), 20, 4)
	if res.Requests != 20*frontendRequestsPerScale {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.Latencies.Count() != int64(res.Requests) {
		t.Fatalf("histogram holds %d samples, want %d", res.Latencies.Count(), res.Requests)
	}
	if res.P50 > res.P99 || res.P99 > res.P999 {
		t.Fatalf("quantiles not ordered: p50=%v p99=%v p999=%v", res.P50, res.P99, res.P999)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v", res.Throughput)
	}
	if res.Checksum != RunFrontend(collections.Plain(), Baseline, 20) {
		t.Fatal("measured run checksum differs from plain run")
	}
}
