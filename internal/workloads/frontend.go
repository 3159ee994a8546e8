package workloads

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/collections"
	"chameleon/internal/stats"
)

// Frontend models a latency-sensitive serving tier: worker goroutines handle
// a request stream against collections *shared across requests* —
// a per-generation hot cache map, a feature-tag set, and a config list. The
// paper's subjects (and the server workload) allocate collections per unit
// of work; here the hot structures outlive thousands of requests and every
// worker hits the same instances. No backing is concurrency-safe, so every
// access to a shared structure takes a client-side mutex, exactly as a
// programmer must. The workload has one program: the Tuned variant runs the
// baseline.
//
// Determinism under concurrency: every value in the hot structures is a pure
// function of (generation, key), writes are idempotent re-writes of that
// function, and the set's membership probes only test generation-seeded
// members, so what any request reads is independent of schedule. Per-request
// checksums combine with XOR; RunFrontendWorkers returns the same checksum
// for every worker count.
//
// Generations rotate every genRequests requests: the first request to reach
// a generation builds its structures (sync.Once), the last one out frees
// them, so the shared contexts accumulate death evidence while the run is
// still going — which is what lets the online selector decide them mid-run.

// FrontendSpec describes the frontend workload. Like server it is not part
// of All() but is available to tests, benchmarks, and the CLI as
// "frontend".
var FrontendSpec = Spec{
	Name:         "frontend",
	Description:  "latency-SLO serving tier: shared hot map/set/list across worker goroutines, Zipf keys",
	Run:          RunFrontend,
	DefaultScale: 200,
}

const (
	// frontendRequestsPerScale converts the scale knob into requests.
	frontendRequestsPerScale = 8
	// genRequests is the generation length: how many requests share one
	// set of hot structures before rotation.
	genRequests = 32
	// frontendKeys is the cache keyspace; requests draw keys Zipf-skewed
	// so a handful of keys take most of the traffic.
	frontendKeys = 128
	// cfgLen is the config list length.
	cfgLen = 12
	// tagSeeds is how many generation-seeded members the tag set starts
	// with; membership probes only ever test these.
	tagSeeds = 4
)

// zipfCDF is the integer cumulative weight table for the key distribution
// (exponent ~1.1). Float math happens once at init; draws are pure integer.
var zipfCDF = func() [frontendKeys]uint64 {
	var cdf [frontendKeys]uint64
	var total uint64
	for i := 0; i < frontendKeys; i++ {
		total += uint64(1e9 / math.Pow(float64(i+1), 1.1))
		cdf[i] = total
	}
	return cdf
}()

// zipfKey draws a key in [0, frontendKeys) with Zipf-skewed probability.
func zipfKey(r *xorshift) int {
	t := r.next() % zipfCDF[frontendKeys-1]
	lo, hi := 0, frontendKeys-1
	for lo < hi {
		mid := (lo + hi) / 2
		if zipfCDF[mid] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func frontendCacheCtx() collections.Option {
	return collections.At("frontend.Cache.lookup:33;frontend.Tier.handle:120")
}

func frontendTagsCtx() collections.Option {
	return collections.At("frontend.Features.check:58;frontend.Tier.handle:120")
}

func frontendCfgCtx() collections.Option {
	return collections.At("frontend.Config.snapshot:74;frontend.Tier.handle:120")
}

func frontendRespCtx() collections.Option {
	return collections.At("frontend.Render.respond:96;frontend.Tier.handle:120")
}

// cacheVal is the pure value function behind the hot map: what key k holds
// in generation g, whoever computes it.
func cacheVal(g, k int) int {
	return int(mix(uint64(g)+0x51ED2701, uint64(k)) & 0x7FFFFFFF)
}

// tagSeedVal names the s-th generation-seeded tag set member.
func tagSeedVal(g, s int) int {
	return int(mix(uint64(g)+0xA5A5, uint64(s))&1023) + 64
}

// tagExtraVal names the racy extra members occasionally added by requests;
// the range is disjoint from tagSeedVal so membership probes on seeds stay
// deterministic while adds race.
func tagExtraVal(g, t int) int {
	return int(mix(uint64(g)+0xC3C3, uint64(t))&1023) + 2048
}

// cfgVal is the pure value function behind the config list.
func cfgVal(g, i int) int {
	return int(mix(uint64(g)+0x9E37, uint64(i)) & 0x7FFFFFFF)
}

// frontendGen is one generation's shared hot structures plus the client
// locks that guard them.
type frontendGen struct {
	once      sync.Once
	remaining atomic.Int64

	cacheMu sync.Mutex
	cache   *collections.Map[int, int]

	tagsMu sync.Mutex
	tags   *collections.Set[int]

	cfgMu sync.Mutex
	cfg   *collections.List[int]
}

func (g *frontendGen) build(rt *collections.Runtime, gen int) {
	g.cache = collections.NewHashMap[int, int](rt, frontendCacheCtx())
	g.tags = collections.NewHashSet[int](rt, frontendTagsCtx())
	g.cfg = collections.NewArrayList[int](rt, frontendCfgCtx())
	for s := 0; s < tagSeeds; s++ {
		g.tags.Add(tagSeedVal(gen, s))
	}
	for i := 0; i < cfgLen; i++ {
		g.cfg.Add(cfgVal(gen, i))
	}
}

func (g *frontendGen) free() {
	g.cache.Free()
	g.tags.Free()
	g.cfg.Free()
}

// handleFrontend serves one request against its generation's shared
// structures; everything it folds into the checksum is a pure function of
// the request id.
func handleFrontend(rt *collections.Runtime, g *frontendGen, gen int, id uint64) uint64 {
	rng := newRand(id*0xD1B54A32D192ED03 + 0x2545F4914F6CDD1D)
	sum := id + 1
	h := rt.Heap()

	// The request body: raw non-collection data, drawn unconditionally so
	// the PRNG sequence is identical with and without a heap.
	bodySize := int64(256 + rng.intn(768))
	var body interface{ Free() }
	if h != nil {
		body = h.AllocData(bodySize)
	}

	// Cache phase: Zipf-keyed lookups; a miss computes the value and writes
	// it back. The write is an idempotent re-write of cacheVal, so racing
	// fillers are harmless and the folded value never depends on who won.
	for j := 0; j < 3; j++ {
		k := zipfKey(rng)
		want := cacheVal(gen, k)
		g.cacheMu.Lock()
		got, ok := g.cache.Get(k)
		if !ok {
			g.cache.Put(k, want)
			got = want
		}
		g.cacheMu.Unlock()
		sum = mix(sum, uint64(got))
	}

	// Feature checks: membership probes on generation-seeded members
	// (always present) plus a rare racy add in a disjoint value range.
	for j := 0; j < 3; j++ {
		s := rng.intn(tagSeeds)
		g.tagsMu.Lock()
		present := g.tags.Contains(tagSeedVal(gen, s))
		g.tagsMu.Unlock()
		if present {
			sum = mix(sum, uint64(s)+1)
		}
	}
	if rng.intn(16) == 0 {
		t := rng.intn(32)
		g.tagsMu.Lock()
		g.tags.Add(tagExtraVal(gen, t))
		g.tagsMu.Unlock()
	}

	// Config reads: indexed gets, an occasional full scan under the lock,
	// and a rare idempotent re-write.
	for j := 0; j < 5; j++ {
		i := rng.intn(cfgLen)
		g.cfgMu.Lock()
		val := g.cfg.Get(i)
		g.cfgMu.Unlock()
		sum = mix(sum, uint64(val))
	}
	if rng.intn(16) == 0 {
		i := rng.intn(cfgLen)
		g.cfgMu.Lock()
		g.cfg.Set(i, cfgVal(gen, i))
		g.cfgMu.Unlock()
	}
	if rng.intn(8) == 0 {
		g.cfgMu.Lock()
		g.cfg.Each(func(x int) bool {
			sum = mix(sum, uint64(x))
			return true
		})
		g.cfgMu.Unlock()
	}

	// Render: a private, short-lived response list — the per-request
	// allocation churn that keeps death evidence flowing for the
	// sequential contexts too.
	nResp := 4 + rng.intn(4)
	resp := collections.NewArrayList[int](rt, frontendRespCtx(), collections.Cap(nResp))
	for j := 0; j < nResp; j++ {
		resp.Add(rng.intn(1 << 16))
	}
	resp.Each(func(x int) bool {
		sum = mix(sum, uint64(x))
		return true
	})
	resp.Free()

	if body != nil {
		body.Free()
	}
	return sum
}

// FrontendResult carries the latency-SLO measurements alongside the
// schedule-independent checksum.
type FrontendResult struct {
	Checksum uint64
	Requests int
	Elapsed  time.Duration
	// Latencies is the merged request-latency histogram in microseconds:
	// each request's service time, from the moment a worker picks it up to
	// its completion.
	Latencies      *stats.Histogram
	P50, P99, P999 time.Duration
	// Throughput is completed requests per second of wall time.
	Throughput float64
}

// RunFrontend drives the frontend on a single goroutine (the RunFunc shape
// used by the experiment runners). Every variant runs the same program.
func RunFrontend(rt *collections.Runtime, _ Variant, scale int) uint64 {
	return RunFrontendWorkers(rt, scale, 1)
}

// RunFrontendWorkers handles scale*frontendRequestsPerScale requests across
// the given number of workers, returning the schedule-independent checksum.
func RunFrontendWorkers(rt *collections.Runtime, scale, workers int) uint64 {
	return FrontendRun(rt, scale, workers).Checksum
}

// FrontendRun is the full frontend driver: scale*frontendRequestsPerScale
// requests across workers goroutines, pulled from a shared atomic counter
// as fast as the workers serve them. Each request's service time lands in
// the latency histogram.
func FrontendRun(rt *collections.Runtime, scale, workers int) FrontendResult {
	total := scale * frontendRequestsPerScale
	if workers < 1 {
		workers = 1
	}
	nGens := (total + genRequests - 1) / genRequests
	gens := make([]frontendGen, nGens)
	for g := range gens {
		n := genRequests
		if last := total - g*genRequests; last < n {
			n = last
		}
		gens[g].remaining.Store(int64(n))
	}

	var next atomic.Int64
	sums := make([]uint64, workers)
	hists := make([]*stats.Histogram, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hist := stats.NewHistogram()
			var local uint64
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					break
				}
				begin := time.Now()
				gi := i / genRequests
				g := &gens[gi]
				g.once.Do(func() { g.build(rt, gi) })
				local ^= handleFrontend(rt, g, gi, uint64(i))
				hist.Add(time.Since(begin).Microseconds())
				if g.remaining.Add(-1) == 0 {
					g.free()
				}
			}
			sums[w], hists[w] = local, hist
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := FrontendResult{
		Requests:  total,
		Elapsed:   elapsed,
		Latencies: stats.NewHistogram(),
	}
	for w := 0; w < workers; w++ {
		res.Checksum ^= sums[w]
		res.Latencies.Merge(hists[w])
	}
	res.P50 = time.Duration(res.Latencies.Quantile(0.50)) * time.Microsecond
	res.P99 = time.Duration(res.Latencies.Quantile(0.99)) * time.Microsecond
	res.P999 = time.Duration(res.Latencies.Quantile(0.999)) * time.Microsecond
	if sec := elapsed.Seconds(); sec > 0 {
		res.Throughput = float64(total) / sec
	}
	return res
}
