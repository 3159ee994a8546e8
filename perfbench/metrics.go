package main

// metric is one reported metric and what it is for.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the end-to-end regression bound (share of the parent's
	// median); 0 for per-layer metrics.
	bound float64
	// target names the end-to-end metric a per-layer metric should move,
	// on which workload, and where it is expected flat.
	target string
}

// endToEnd lists the metrics a user of the system sees. Every workload
// prints every one of them with --trace 0. An op (allocs.per_op) is one
// pass in the batch workloads and one request in serve-shared, whose "pass"
// is one batch of requests served by a fresh session. latency_us and
// throughput_rps count tasks of the generated program in the batch
// workloads and requests in serve-shared. minheap_pct is the simulated
// minimal heap with selection as a share of the same input's without
// (the paper's Fig. 6 relative heap); gc_saving_pct is the simulated GC
// cycles saved.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "pass_ms.p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "pass_ms.p90", unit: "ms", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_us.p50", unit: "us", better: "lower", bound: 0.25},
	{name: "latency_us.p99", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs.per_op", unit: "count", better: "lower", bound: 0.05},
	{name: "alloc_bytes.per_op", unit: "B", better: "lower", bound: 0.05},
	{name: "retained_mb", unit: "MB", better: "lower", bound: 0.2},
	{name: "minheap_pct", unit: "%", better: "lower", bound: 0.05},
	{name: "gc_saving_pct", unit: "%", better: "higher", bound: 0.1},
}

// perLayer lists the traced run's metrics; none is gated.
var perLayer = []metric{
	{name: "core.new_session_us", unit: "us", better: "lower", target: "setup_s on all"},
	{name: "driver.run_ms", unit: "ms", better: "lower", target: "pass_ms.p50 on offline-report, online-auto"},
	{name: "collections.plain_ms", unit: "ms", better: "lower", target: "pass_ms.p50 on all"},
	{name: "collections.plain_allocs", unit: "count", better: "lower", target: "pass_ms.p50 on all"},
	{name: "collections.flush_ms", unit: "ms", better: "lower", target: "pass_ms.p50 on offline-report; flat on serve-shared"},
	{name: "collections.flushes", unit: "count", better: "lower", target: "pass_ms.p50 on offline-report; flat on serve-shared"},
	{name: "heap.sim_ms", unit: "ms", better: "lower", target: "pass_ms.p50, allocs.per_op on offline-report; flat on serve-shared"},
	{name: "heap.sim_allocs", unit: "count", better: "lower", target: "pass_ms.p50, allocs.per_op on offline-report; flat on serve-shared"},
	{name: "heap.final_gc_ms", unit: "ms", better: "lower", target: "pass_ms.p50, minheap_pct on offline-report; flat on serve-shared"},
	{name: "heap.gc_walk_ms", unit: "ms", better: "lower", target: "pass_ms.p50, minheap_pct on offline-report; flat on serve-shared"},
	{name: "heap.gc_walks", unit: "count", better: "lower", target: "pass_ms.p50, minheap_pct on offline-report; flat on serve-shared"},
	{name: "heap.cycles", unit: "count", better: "lower", target: "pass_ms.p50, minheap_pct on offline-report; flat on serve-shared"},
	{name: "heap.peak_live_kb", unit: "KB", better: "lower", target: "pass_ms.p50, minheap_pct on offline-report; flat on serve-shared"},
	{name: "profiler.trace_ms", unit: "ms", better: "lower", target: "pass_ms.p50 on offline-report, latency_us.p50 on serve-shared"},
	{name: "profiler.trace_allocs", unit: "count", better: "lower", target: "pass_ms.p50 on offline-report, latency_us.p50 on serve-shared"},
	{name: "profiler.snapshot_ms", unit: "ms", better: "lower", target: "pass_ms.p50, retained_mb on offline-report; flat on online-auto"},
	{name: "profiler.persist_ms", unit: "ms", better: "lower", target: "pass_ms.p50, retained_mb on offline-report; flat on online-auto"},
	{name: "profiler.contexts", unit: "count", better: "lower", target: "pass_ms.p50, retained_mb on offline-report; flat on online-auto"},
	{name: "profiler.live_instances", unit: "count", better: "lower", target: "pass_ms.p50, retained_mb on offline-report; flat on online-auto"},
	{name: "profiler.fold_ms", unit: "ms", better: "lower", target: "pass_ms.p50 on online-auto; flat on serve-shared"},
	{name: "profiler.folds", unit: "count", better: "lower", target: "pass_ms.p50 on online-auto; flat on serve-shared"},
	{name: "alloctx.dynamic_ms", unit: "ms", better: "lower", target: "pass_ms.p50, allocs.per_op on online-auto; flat on offline-report, serve-shared"},
	{name: "alloctx.dynamic_allocs", unit: "count", better: "lower", target: "pass_ms.p50, allocs.per_op on online-auto; flat on offline-report, serve-shared"},
	{name: "alloctx.contexts", unit: "count", better: "higher", target: "pass_ms.p50, allocs.per_op on online-auto; flat on offline-report, serve-shared"},
	{name: "alloctx.collisions", unit: "count", better: "lower", target: "pass_ms.p50, allocs.per_op on online-auto; flat on offline-report, serve-shared"},
	{name: "adaptive.select_ms", unit: "ms", better: "lower", target: "pass_ms.p50 on online-auto, latency_us.p50 on serve-shared; flat on offline-report"},
	{name: "adaptive.select_allocs", unit: "count", better: "lower", target: "pass_ms.p50 on online-auto, latency_us.p50 on serve-shared; flat on offline-report"},
	{name: "adaptive.verify_ms", unit: "ms", better: "lower", target: "pass_ms.p50 on online-auto; flat on offline-report"},
	{name: "adaptive.verify_allocs", unit: "count", better: "lower", target: "pass_ms.p50 on online-auto; flat on offline-report"},
	{name: "adaptive.decides", unit: "count", better: "lower", target: "pass_ms.p50, minheap_pct on online-auto; flat on offline-report"},
	{name: "adaptive.replacements", unit: "count", better: "higher", target: "pass_ms.p50, minheap_pct on online-auto; flat on offline-report"},
	{name: "adaptive.verifies", unit: "count", better: "higher", target: "pass_ms.p50, minheap_pct on online-auto; flat on offline-report"},
	{name: "adaptive.rollbacks", unit: "count", better: "lower", target: "pass_ms.p50, minheap_pct on online-auto; flat on offline-report"},
	{name: "adaptive.quarantines", unit: "count", better: "lower", target: "pass_ms.p50, minheap_pct on online-auto; flat on offline-report"},
	{name: "adaptive.verify_pass.ratio", unit: "ratio", better: "higher", target: "pass_ms.p50, minheap_pct on online-auto; flat on offline-report"},
	{name: "adaptive.concurrent_decisions", unit: "count", better: "higher", target: "latency_us.p99, throughput_rps on serve-shared; flat on offline-report"},
	{name: "advisor.advise_ms", unit: "ms", better: "lower", target: "pass_ms.p50, minheap_pct on offline-report; flat on online-auto, serve-shared"},
	{name: "advisor.plan_us", unit: "us", better: "lower", target: "pass_ms.p50, minheap_pct on offline-report; flat on online-auto, serve-shared"},
	{name: "advisor.suggestions", unit: "count", better: "higher", target: "pass_ms.p50, minheap_pct on offline-report; flat on online-auto, serve-shared"},
	{name: "advisor.plan_entries", unit: "count", better: "higher", target: "pass_ms.p50, minheap_pct on offline-report; flat on online-auto, serve-shared"},
	{name: "advisor.planted_recall.ratio", unit: "ratio", better: "higher", target: "pass_ms.p50, minheap_pct on offline-report; flat on online-auto, serve-shared"},
	{name: "serve.client_lock_wait_us.p99", unit: "us", better: "lower", target: "latency_us.p99 on serve-shared"},
	{name: "go.gc_cpu_ms", unit: "ms", better: "lower", target: "pass_ms.p90, alloc_bytes.per_op on offline-report"},
	{name: "go.gc_cycles", unit: "count", better: "lower", target: "pass_ms.p90, alloc_bytes.per_op on offline-report"},
	{name: "go.mutex_wait_ms", unit: "ms", better: "lower", target: "pass_ms.p50 on online-auto; flat on offline-report"},
	{name: "go.sched_latency_us.p99", unit: "us", better: "lower", target: "latency_us.p99 on serve-shared; flat on offline-report"},
	{name: "ledger.auto_over_plain.ratio", unit: "ratio", better: "lower", target: "summary on online-auto, offline-report"},
	{name: "ledger.metered_share.frac", unit: "ratio", better: "higher", target: "summary on online-auto, offline-report"},
	{name: "trace.unattributed.frac", unit: "ratio", better: "lower", target: "reconciliation: pass time no span covers"},
	{name: "trace.overhead.frac", unit: "ratio", better: "lower", target: "reconciliation: traced vs untraced pass_ms.p50"},
	{name: "host.cpu_probe_ms", unit: "ms", better: "lower", target: "host record: CPU-bound loop, no Chameleon code"},
	{name: "host.mem_probe_ms", unit: "ms", better: "lower", target: "host record: memory-churn kernel, no Chameleon code"},
}
