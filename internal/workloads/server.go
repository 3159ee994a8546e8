package workloads

import (
	"sync"

	"chameleon/internal/collections"
)

// Server models a request-handling server: N worker goroutines pull requests
// off a shared stream and handle each one through the same profiled Runtime.
// The paper's subjects are single-threaded batch programs; this driver is the
// concurrent counterpart that exercises the whole pipeline — wrappers →
// profiler → heap → (optionally) online selector — from many goroutines at
// once. Its per-request collection usage carries the familiar pathologies:
// small get-dominated parameter HashMaps (ArrayMap fixes them), tag sets
// that usually stay empty (lazy allocation), and default-capacity response
// lists whose final size is known up front (capacity tuning).
//
// Determinism under concurrency: each request derives everything from its
// own PRNG seeded by the request index, and per-request checksums combine
// with XOR, so the result is independent of how requests interleave across
// workers. RunServerWorkers(…, w) returns the same checksum for every w.

// ServerSpec describes the server workload. Like the neutral workload it is
// not part of All() (Fig. 6/7 cover the paper's six subjects) but is
// available to tests, benchmarks, and the CLI as "server".
var ServerSpec = Spec{
	Name:         "server",
	Description:  "concurrent request handling: small param maps, mostly-empty tag sets, response lists across N goroutines",
	Run:          RunServer,
	DefaultScale: 200,
}

// requestsPerScale converts the abstract scale knob into a request count.
const requestsPerScale = 4

func serverParamsCtx() collections.Option {
	return collections.At("server.Handler.parseParams:41;server.Router.route:88")
}

func serverTagsCtx() collections.Option {
	return collections.At("server.Handler.collectTags:67;server.Router.route:88")
}

func serverRespCtx() collections.Option {
	return collections.At("server.Handler.render:102;server.Router.route:88")
}

func serverTmpCtx() collections.Option {
	return collections.At("server.Handler.normalize:55;server.Router.route:88")
}

// RunServer drives the server workload on a single goroutine (the RunFunc
// shape used by the experiment runners).
func RunServer(rt *collections.Runtime, v Variant, scale int) uint64 {
	return RunServerWorkers(rt, v, scale, 1)
}

// RunServerWorkers handles scale*requestsPerScale requests split across the
// given number of worker goroutines, all sharing rt. The checksum is
// schedule-independent: it equals the single-worker result for any worker
// count.
func RunServerWorkers(rt *collections.Runtime, v Variant, scale, workers int) uint64 {
	return xorWorkers(scale*requestsPerScale, workers, func(id uint64) uint64 { return handleRequest(rt, v, id) })
}

// xorWorkers runs step(i) for every i in [0, total), split round-robin
// across workers goroutines (inline on the caller for one), and returns
// the XOR of the results. XOR commutes, so the checksum is the same for
// every worker count and schedule as long as each step is a pure function
// of i.
func xorWorkers(total, workers int, step func(i uint64) uint64) uint64 {
	if workers <= 1 {
		var sum uint64
		for i := 0; i < total; i++ {
			sum ^= step(uint64(i))
		}
		return sum
	}
	sums := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local uint64 // one store to sums: neighbours share a cache line
			for i := w; i < total; i += workers {
				local ^= step(uint64(i))
			}
			sums[w] = local
		}()
	}
	wg.Wait()
	var sum uint64
	for _, s := range sums {
		sum ^= s
	}
	return sum
}

// handleRequest parses, routes, and renders one request; everything it does
// is a pure function of the request id.
func handleRequest(rt *collections.Runtime, v Variant, id uint64) uint64 {
	rng := newRand(id*0x9E3779B97F4A7C15 + 0x0123456789ABCDEF)
	sum := id + 1
	h := rt.Heap()

	// Parse: a small parameter map, then a get-dominated routing phase —
	// the TVLA pathology (§5.3.1) in miniature. The fix is ArrayMap with a
	// right-sized capacity.
	var params *collections.Map[int, int]
	if v == Tuned {
		params = collections.NewArrayMap[int, int](rt, serverParamsCtx(), collections.Cap(5))
	} else {
		params = collections.NewHashMap[int, int](rt, serverParamsCtx())
	}
	nParams := 2 + rng.intn(4)
	for j := 0; j < nParams; j++ {
		params.Put(j, rng.intn(1<<12))
	}
	for j := 0; j < 24; j++ {
		if val, ok := params.Get(j % 8); ok {
			sum = mix(sum, uint64(val))
		}
	}

	// The request body itself: raw non-collection data. The size is drawn
	// unconditionally so the PRNG sequence — and hence the checksum — is
	// identical with and without a heap.
	bodySize := int64(512 + rng.intn(1024))
	var body interface{ Free() }
	if h != nil {
		body = h.AllocData(bodySize)
	}

	// Tags: allocated for every request, populated for few — the FindBugs
	// mostly-empty pathology (§5.3.4). The fix is lazy allocation.
	var tags *collections.Set[int]
	if v == Tuned {
		tags = collections.NewLazySet[int](rt, serverTagsCtx())
	} else {
		tags = collections.NewHashSet[int](rt, serverTagsCtx())
	}
	if rng.intn(5) == 0 {
		for j, n := 0, 1+rng.intn(3); j < n; j++ {
			tags.Add(rng.intn(64))
		}
	}
	if tags.Contains(7) {
		sum = mix(sum, 7)
	}

	// Normalize: short-lived scratch list, pure churn — the PMD pathology
	// (§5.3.5); tuned, it is exactly sized.
	nTmp := 4 + rng.intn(4)
	var tmp *collections.List[int]
	if v == Tuned {
		tmp = collections.NewArrayList[int](rt, serverTmpCtx(), collections.Cap(nTmp))
	} else {
		tmp = collections.NewArrayList[int](rt, serverTmpCtx())
	}
	for j := 0; j < nTmp; j++ {
		tmp.Add(rng.intn(1 << 10))
	}
	tmp.Each(func(x int) bool {
		sum = mix(sum, uint64(x))
		return true
	})
	tmp.Free()

	// Render: the response accumulates a known number of items; tuned, the
	// list is allocated at its final capacity.
	nResp := 8 + rng.intn(8)
	var resp *collections.List[int]
	if v == Tuned {
		resp = collections.NewArrayList[int](rt, serverRespCtx(), collections.Cap(nResp))
	} else {
		resp = collections.NewArrayList[int](rt, serverRespCtx())
	}
	for j := 0; j < nResp; j++ {
		resp.Add(rng.intn(1 << 16))
	}
	resp.Each(func(x int) bool {
		sum = mix(sum, uint64(x))
		return true
	})

	// Response sent: the request's objects die together.
	resp.Free()
	tags.Free()
	params.Free()
	if body != nil {
		body.Free()
	}
	return sum
}
