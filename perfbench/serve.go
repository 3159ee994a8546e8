package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/collections"
)

// serve-shared: a serving tier. Two closed-loop clients each take the next
// request, handle it, and only then take another. Requests hit long-lived
// collections shared by both clients (a Zipf-keyed cache map with miss
// write-backs, a read-mostly tag set, a read-mostly config list) and build
// small private collections of their own. The shared collections belong to
// a generation of genRequests requests; the first request of a generation
// builds them and the last one frees them, so the online selector sees
// shared contexts die and can move later generations to concurrent-native
// backings. While a shared backing is not concurrency-safe, the client
// takes that collection's mutex around every access.
//
// Every value a request reads is a pure function of (generation, key), and
// writes re-write that function, so a request's checksum does not depend on
// the schedule; a batch's checksum is the XOR of its requests'.

const (
	serveKeys   = 64 // cache key space
	genRequests = 64 // requests per generation
	serveGens   = 96 // generations per batch
	cfgLen      = 12 // config list length
	tagSeeds    = 4  // seeded tag-set members; probes only test these
	// A client keeps the parameter and header maps of its last serveKept
	// requests for retries; they dominate the tier's live collection bytes.
	serveKept   = 12
	serveParams = 8 // entries in a request's parameter and header maps
)

// serve request flags.
const (
	flagTagAdd  = 1 << iota // add a tag outside the probed range
	flagCfgSet              // re-write one config entry
	flagCfgScan             // fold the whole config list
	flagWarning             // the request produces a warning
)

// request is one generated request.
type request struct {
	keys  [3]uint8 // cache keys (Zipf)
	tags  [3]uint8 // probed tag seeds
	cfg   [4]uint8 // config indices read
	flags uint8
	aux   uint8  // which tag is added / config entry re-written
	val   uint32 // seeds the request's private values
}

// serveInput is the generated traffic of one serve-shared batch.
type serveInput struct {
	salt uint64
	reqs []request
	ref  uint64 // XOR of the reference per-request checksums
}

// zipfCDF is the integer cumulative weight table of the key distribution
// (exponent 1.1).
var zipfCDF = func() [serveKeys]uint64 {
	var cdf [serveKeys]uint64
	var total uint64
	for i := range cdf {
		total += uint64(1e9 / math.Pow(float64(i+1), 1.1))
		cdf[i] = total
	}
	return cdf
}()

func zipfKey(r *xorshift) uint8 {
	t := r.next() % zipfCDF[serveKeys-1]
	lo, hi := 0, serveKeys-1
	for lo < hi {
		mid := (lo + hi) / 2
		if zipfCDF[mid] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint8(lo)
}

// genServe generates one batch of requests and its reference checksum.
func genServe(seed uint64) *serveInput {
	r := newRand(seed)
	in := &serveInput{salt: r.next(), reqs: make([]request, genRequests*serveGens)}
	for i := range in.reqs {
		q := &in.reqs[i]
		for j := range q.keys {
			q.keys[j] = zipfKey(r)
		}
		for j := range q.tags {
			q.tags[j] = uint8(r.intn(tagSeeds))
		}
		for j := range q.cfg {
			q.cfg[j] = uint8(r.intn(cfgLen))
		}
		if r.intn(16) == 0 {
			q.flags |= flagTagAdd
		}
		if r.intn(16) == 0 {
			q.flags |= flagCfgSet
		}
		if r.intn(8) == 0 {
			q.flags |= flagCfgScan
		}
		if r.intn(10) == 0 {
			q.flags |= flagWarning
		}
		q.aux = uint8(r.intn(32))
		q.val = uint32(r.next())
	}
	in.ref = in.reference()
	return in
}

func (in *serveInput) cacheVal(g int, k uint8) int {
	return int(mix(in.salt^uint64(g)<<8, uint64(k)) & 0x7FFFFFFF)
}

func (in *serveInput) tagSeedVal(g int, s uint8) int {
	return int(mix(in.salt+uint64(g)+0xA5A5, uint64(s))&1023) + 64
}

func (in *serveInput) tagExtraVal(g int, t uint8) int {
	return int(mix(in.salt+uint64(g)+0xC3C3, uint64(t))&1023) + 2048
}

func (in *serveInput) cfgVal(g, i int) int {
	return int(mix(in.salt+uint64(g)+0x9E37, uint64(i)) & 0x7FFFFFFF)
}

// paramVal is the j-th private parameter of a request.
func paramVal(q *request, j int) int { return int(q.val>>(3*j)) & 0xFFF }

// headerVal is the j-th header of a request.
func headerVal(q *request, j int) int { return int(q.val>>(2*j)) & 0x3FFF }

// reference replays the batch on plain Go maps and slices, one generation
// after another.
func (in *serveInput) reference() uint64 {
	var x uint64
	for g := 0; g < serveGens; g++ {
		cache := map[uint8]int{}
		tags := map[int]struct{}{}
		for s := uint8(0); s < tagSeeds; s++ {
			tags[in.tagSeedVal(g, s)] = struct{}{}
		}
		cfg := make([]int, cfgLen)
		for i := range cfg {
			cfg[i] = in.cfgVal(g, i)
		}
		for i := g * genRequests; i < (g+1)*genRequests; i++ {
			q := &in.reqs[i]
			sum := mix(17, uint64(i))
			params := map[int]int{}
			for j := 0; j < serveParams; j++ {
				params[j] = paramVal(q, j)
			}
			for j := 0; j < 8; j++ {
				v, ok := params[j%6]
				sum = mix(sum, mapRead(v, ok))
			}
			headers := map[int]int{}
			for j := 0; j < serveParams; j++ {
				headers[j*3] = headerVal(q, j)
			}
			for j := 0; j < 6; j++ {
				v, ok := headers[j*5]
				sum = mix(sum, mapRead(v, ok))
			}
			for _, k := range q.keys {
				got, ok := cache[k]
				if !ok {
					got = in.cacheVal(g, k)
					cache[k] = got
				}
				sum = mix(sum, uint64(got))
			}
			for _, s := range q.tags {
				_, ok := tags[in.tagSeedVal(g, s)]
				sum = mix(sum, b2u(ok))
			}
			if q.flags&flagTagAdd != 0 {
				tags[in.tagExtraVal(g, q.aux)] = struct{}{}
			}
			for _, c := range q.cfg {
				sum = mix(sum, uint64(cfg[c]))
			}
			if q.flags&flagCfgSet != 0 {
				c := int(q.aux) % cfgLen
				cfg[c] = in.cfgVal(g, c)
			}
			if q.flags&flagCfgScan != 0 {
				h := uint64(17)
				for _, v := range cfg {
					h = mix(h, uint64(v))
				}
				sum = mix(sum, h)
			}
			warnings := 0
			if q.flags&flagWarning != 0 {
				warnings = 1
			}
			sum = mix(sum, uint64(warnings))
			sum = mix(sum, mix(17, sum&0xFFFF))
			x ^= sum
		}
	}
	return x
}

// Static labels of the serve-shared allocation sites.
var (
	serveCacheOpts = []collections.Option{collections.At("perfbench.serve.cache:1")}
	serveTagsOpts  = []collections.Option{collections.At("perfbench.serve.tags:1")}
	serveCfgOpts   = []collections.Option{collections.At("perfbench.serve.config:1")}
	serveParamOpts = []collections.Option{collections.At("perfbench.serve.params:1")}
	serveHeadOpts  = []collections.Option{collections.At("perfbench.serve.headers:1")}
	serveWarnOpts  = []collections.Option{collections.At("perfbench.serve.warnings:1")}
	serveRespOpts  = []collections.Option{collections.At("perfbench.serve.response:1")}
)

// generation is one generation's shared collections and client locks.
type generation struct {
	buildMu   sync.Mutex
	ready     atomic.Bool
	remaining atomic.Int64

	cacheMu     sync.Mutex
	cache       *collections.Map[int, int]
	cacheLocked bool

	tagsMu     sync.Mutex
	tags       *collections.Set[int]
	tagsLocked bool

	cfgMu     sync.Mutex
	cfg       *collections.List[int]
	cfgLocked bool
}

// ensure builds the generation's shared collections on first use.
func (g *generation) ensure(rt *collections.Runtime, in *serveInput, gi int) {
	if g.ready.Load() {
		return
	}
	g.buildMu.Lock()
	if !g.ready.Load() {
		g.build(rt, in, gi)
		g.ready.Store(true)
	}
	g.buildMu.Unlock()
}

func (g *generation) build(rt *collections.Runtime, in *serveInput, gi int) {
	g.cache = collections.NewHashMap[int, int](rt, serveCacheOpts...)
	g.tags = collections.NewHashSet[int](rt, serveTagsOpts...)
	g.cfg = collections.NewArrayList[int](rt, serveCfgOpts...)
	g.cacheLocked = !g.cache.Kind().Concurrent()
	g.tagsLocked = !g.tags.Kind().Concurrent()
	g.cfgLocked = !g.cfg.Kind().Concurrent()
	for s := uint8(0); s < tagSeeds; s++ {
		g.tags.Add(in.tagSeedVal(gi, s))
	}
	for i := 0; i < cfgLen; i++ {
		g.cfg.Add(in.cfgVal(gi, i))
	}
}

func (g *generation) free() {
	g.cache.Free()
	g.tags.Free()
	g.cfg.Free()
}

// client is one closed-loop client's private state.
type client struct {
	rt   *collections.Runtime
	in   *serveInput
	lat  *histogram // request latency, ns
	lock *histogram // client-lock wait, ns; nil when not traced
	acc  uint64
	fold func(int) bool
	sum  uint64
	// kept holds the parameter and header maps of the client's recent
	// requests, oldest first.
	kept [][2]*collections.Map[int, int]
}

// keep retains a request's maps and frees the oldest beyond the window.
func (c *client) keep(params, headers *collections.Map[int, int]) {
	c.kept = append(c.kept, [2]*collections.Map[int, int]{params, headers})
	if len(c.kept) > serveKept {
		c.kept[0][0].Free()
		c.kept[0][1].Free()
		c.kept = c.kept[1:]
	}
}

// release frees every retained map.
func (c *client) release() {
	for _, p := range c.kept {
		p[0].Free()
		p[1].Free()
	}
	c.kept = nil
}

func newClient(rt *collections.Runtime, in *serveInput, lat, lock *histogram) *client {
	c := &client{rt: rt, in: in, lat: lat, lock: lock}
	c.fold = func(x int) bool { c.acc = mix(c.acc, uint64(x)); return true }
	return c
}

// acquire takes a client lock, timing the wait when traced.
func (c *client) acquire(mu *sync.Mutex) {
	if c.lock == nil {
		mu.Lock()
		return
	}
	t0 := time.Now()
	mu.Lock()
	c.lock.add(int64(time.Since(t0)))
}

// handle serves request i against its generation's shared collections.
func (c *client) handle(g *generation, gi, i int) uint64 {
	in, rt := c.in, c.rt
	q := &in.reqs[i]
	sum := mix(17, uint64(i))

	params := collections.NewHashMap[int, int](rt, serveParamOpts...)
	for j := 0; j < serveParams; j++ {
		params.Put(j, paramVal(q, j))
	}
	for j := 0; j < 8; j++ {
		v, ok := params.Get(j % 6)
		sum = mix(sum, mapRead(v, ok))
	}
	headers := collections.NewHashMap[int, int](rt, serveHeadOpts...)
	for j := 0; j < serveParams; j++ {
		headers.Put(j*3, headerVal(q, j))
	}
	for j := 0; j < 6; j++ {
		v, ok := headers.Get(j * 5)
		sum = mix(sum, mapRead(v, ok))
	}

	for _, k := range q.keys {
		if g.cacheLocked {
			c.acquire(&g.cacheMu)
		}
		got, ok := g.cache.Get(int(k))
		if !ok {
			got = in.cacheVal(gi, k)
			g.cache.Put(int(k), got)
		}
		if g.cacheLocked {
			g.cacheMu.Unlock()
		}
		sum = mix(sum, uint64(got))
	}

	for _, s := range q.tags {
		if g.tagsLocked {
			c.acquire(&g.tagsMu)
		}
		ok := g.tags.Contains(in.tagSeedVal(gi, s))
		if g.tagsLocked {
			g.tagsMu.Unlock()
		}
		sum = mix(sum, b2u(ok))
	}
	if q.flags&flagTagAdd != 0 {
		if g.tagsLocked {
			c.acquire(&g.tagsMu)
		}
		g.tags.Add(in.tagExtraVal(gi, q.aux))
		if g.tagsLocked {
			g.tagsMu.Unlock()
		}
	}

	for _, ci := range q.cfg {
		if g.cfgLocked {
			c.acquire(&g.cfgMu)
		}
		v := g.cfg.Get(int(ci))
		if g.cfgLocked {
			g.cfgMu.Unlock()
		}
		sum = mix(sum, uint64(v))
	}
	if q.flags&(flagCfgSet|flagCfgScan) != 0 {
		if g.cfgLocked {
			c.acquire(&g.cfgMu)
		}
		if q.flags&flagCfgSet != 0 {
			ci := int(q.aux) % cfgLen
			g.cfg.Set(ci, in.cfgVal(gi, ci))
		}
		if q.flags&flagCfgScan != 0 {
			c.acc = 17
			g.cfg.Each(c.fold)
			sum = mix(sum, c.acc)
		}
		if g.cfgLocked {
			g.cfgMu.Unlock()
		}
	}

	warnings := collections.NewArrayList[int](rt, serveWarnOpts...)
	if q.flags&flagWarning != 0 {
		warnings.Add(i)
	}
	sum = mix(sum, uint64(warnings.Size()))

	resp := collections.NewArrayList[int](rt, serveRespOpts...)
	resp.Add(int(sum & 0xFFFF))
	c.acc = 17
	resp.Each(c.fold)
	sum = mix(sum, c.acc)

	resp.Free()
	warnings.Free()
	c.keep(params, headers)
	return sum
}

// serveBatch runs one batch of requests on rt with two closed-loop clients
// and returns the XOR of the request checksums.
func serveBatch(rt *collections.Runtime, in *serveInput, lat, lock [2]*histogram) uint64 {
	gens := make([]generation, serveGens)
	for g := range gens {
		gens[g].remaining.Store(genRequests)
	}
	total := len(in.reqs)
	var next atomic.Int64
	var wg sync.WaitGroup
	clients := [2]*client{}
	for w := range clients {
		clients[w] = newClient(rt, in, lat[w], lock[w])
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				t0 := time.Now()
				gi := i / genRequests
				g := &gens[gi]
				g.ensure(rt, in, gi)
				c.sum ^= c.handle(g, gi, i)
				if g.remaining.Add(-1) == 0 {
					g.free()
				}
				c.lat.add(int64(time.Since(t0)))
			}
		}(clients[w])
	}
	wg.Wait()
	for _, c := range clients {
		c.release()
	}
	return clients[0].sum ^ clients[1].sum
}
