package heap

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/gid"
	"chameleon/internal/governor"
)

// Collection is the semantic-map interface: any object registered with the
// heap that can report its own footprint. The paper's semantic ADT maps
// (§4.3.2) describe, per collection type, how the collector finds the
// object's size, used size, and allocation-context pointer; here that
// knowledge lives in each implementation's HeapFootprint method (custom
// collection implementations plug in by implementing this interface).
//
// Under concurrent allocation the collector cannot safely consult a
// semantic map while another goroutine mutates the collection, so the
// heap reads footprints from each Ticket's cache instead: owners push a
// fresh semantic-map reading through Ticket.Sync (or Ticket.Adjust) on
// every footprint change, and GC cycles aggregate the cached readings.
// HeapFootprint is therefore called by the heap only once, at Register
// time, on the registering goroutine.
type Collection interface {
	// HeapFootprint reports the current live/used/core bytes of the
	// collection and all its internal objects under the heap's size model.
	HeapFootprint() Footprint
	// ContextKey identifies the allocation context the collection was
	// allocated at (0 when context tracking was off for this instance).
	// Keys must come from the session's alloctx.Table (Context.Key), as
	// examples/customcollection does: the table's context budget is then
	// the only bound the per-cycle PerContext maps need.
	ContextKey() uint64
	// KindName is the implementation type name, used for the per-type
	// live-size breakdown of paper Table 3.
	KindName() string
}

// CycleStats is the set of statistics gathered on every garbage-collection
// cycle (paper Table 3).
type CycleStats struct {
	// Cycle is the 1-based GC cycle number.
	Cycle int
	// LiveData is the size of all reachable objects (application data plus
	// collections).
	LiveData int64
	// Collections is the aggregate footprint of all live collection
	// objects.
	Collections Footprint
	// CollectionObjects is the number of live collection objects.
	CollectionObjects int64
	// TypeDist is the live-size breakdown per implementation type.
	TypeDist map[string]int64
	// PerContext is the per-allocation-context collection footprint and
	// object count observed in this cycle. The collector records these
	// into each context's ContextInfo (paper §4.3.1); observers receive
	// the same data.
	PerContext map[uint64]ContextCycle
}

// ContextCycle is one context's collection footprint within a single cycle.
type ContextCycle struct {
	Footprint Footprint
	Objects   int64
}

// Observer receives each completed GC cycle. The profiler implements this
// to fold heap statistics into per-context trace statistics (Table 1).
type Observer interface {
	ObserveCycle(c *CycleStats)
}

// Config configures a simulated heap.
type Config struct {
	// Model is the object-layout model; the zero value defaults to Model32.
	Model SizeModel
	// GCThreshold is the number of allocated bytes between GC cycles; the
	// zero value defaults to 1 MiB.
	GCThreshold int64
	// Observer, when non-nil, receives every GC cycle.
	Observer Observer
	// KeepSnapshots retains every CycleStats for later inspection (used to
	// draw the Fig. 2 / Fig. 8 per-cycle series). PerContext maps are
	// retained only when KeepContexts is also set.
	KeepSnapshots bool
	// KeepContexts retains per-context data inside kept snapshots.
	KeepContexts bool
	// Generational enables a two-region (young/old) collector: most
	// trigger points run cheap minor cycles that walk only young
	// collections, with a full (major) cycle every MinorPerMajor+1
	// triggers. Only major cycles produce the Table 3 statistics, so the
	// per-context aggregates are identical to the non-generational
	// collector's — the paper's observation that "the improvements in
	// collection usage are orthogonal to the specific GC" (§4.3.2).
	Generational bool
	// MinorPerMajor is the number of minor cycles between major cycles
	// in generational mode (default 4).
	MinorPerMajor int
	// Limit, when positive, is a hard cap on live bytes: an allocation
	// that would push the live set past it panics with an OOMError. This
	// is how "the minimal heap-size required to run the application"
	// (§2.1, §5.2) is made operational: a run completes iff its peak live
	// data fits the limit.
	Limit int64
	// Meter, when non-nil, receives the self-measured cost of every GC
	// walk for the overhead governor.
	Meter *governor.Meter
}

// OOMError is the panic value raised when the heap limit is exceeded.
type OOMError struct {
	// Needed is the live-byte total the allocation required.
	Needed int64
	// Limit is the configured cap.
	Limit int64
}

// Error implements the error interface.
func (e OOMError) Error() string {
	return fmt.Sprintf("heap: out of memory: %d bytes live exceeds the %d-byte limit", e.Needed, e.Limit)
}

type entry struct {
	coll   Collection
	ticket *Ticket
}

// numShards is the number of live-registry shards; a power of two so the
// round-robin shard choice is a mask. Sixteen shards keep Register / Free /
// Sync contention negligible up to well past 16 allocating goroutines
// while keeping the GC walk's lock count trivial.
const numShards = 16

// shard is one slice of the live-collection registry. Its mutex guards the
// regions and the membership fields of every ticket in it (slot, region,
// age); the cached footprint itself is atomic and needs no lock.
type shard struct {
	mu      sync.Mutex
	regions [2][]entry // 0 young, 1 old
}

// Heap is a simulated managed heap. It tracks plain application data by
// size, tracks collections through their semantic maps, triggers GC cycles
// by allocation volume, and maintains the aggregate statistics the
// Chameleon profiler consumes.
//
// Heap is safe for concurrent use: counters on the allocation path are
// atomic, the live-collection registry is sharded, and GC cycles run under
// a single writer lock (see docs/CONCURRENCY.md for the full locking
// model). Individual collections remain single-owner: one goroutine may
// mutate a given collection at a time, which is what lets the heap read
// footprints from ticket caches instead of stopping the world.
type Heap struct {
	model       SizeModel
	gcThreshold int64
	observer    Observer
	keepSnaps   bool
	keepCtx     bool

	generational  bool
	minorPerMajor int
	limit         int64
	meter         *governor.Meter

	// Allocation-path accounting: contention-free atomics. Total allocation
	// volume is not a counter of its own — it is derived as
	// sinceGC + gcThreshold*cycleClaims, which keeps the per-allocation
	// hot path at a single atomic add (sinceGC). The live collection count
	// is likewise derived by summing shard lengths on demand.
	dataLive    atomic.Int64 // live bytes of plain application data
	collLive    atomic.Int64 // running estimate of live collection bytes
	peakLive    atomic.Int64 // high-water mark of dataLive+collLive
	sinceGC     atomic.Int64 // bytes allocated since the last claimed cycle
	cycleClaims atomic.Int64 // threshold crossings claimed by maybeGC

	// shards hold the live collection registry.
	shards [numShards]shard

	// gcMu is the single-writer GC lock: one cycle (minor or major) runs
	// at a time, and it also guards the cross-cycle aggregates below.
	gcMu       sync.Mutex
	numGC      int
	gcTriggers int
	numMinorGC int

	promotedBytes int64

	// Aggregates across cycles (the Total/Max columns of Table 1).
	totLiveData int64
	maxLiveData int64
	totColl     Footprint
	maxColl     Footprint
	totCollObjs int64
	maxCollObjs int64

	snapshots []CycleStats
}

// New returns a heap with the given configuration.
func New(cfg Config) *Heap {
	if cfg.Model == (SizeModel{}) {
		cfg.Model = Model32
	}
	if cfg.GCThreshold <= 0 {
		cfg.GCThreshold = 1 << 20
	}
	if cfg.MinorPerMajor <= 0 {
		cfg.MinorPerMajor = 4
	}
	return &Heap{
		model:         cfg.Model,
		gcThreshold:   cfg.GCThreshold,
		observer:      cfg.Observer,
		keepSnaps:     cfg.KeepSnapshots,
		keepCtx:       cfg.KeepContexts,
		generational:  cfg.Generational,
		minorPerMajor: cfg.MinorPerMajor,
		limit:         cfg.Limit,
		meter:         cfg.Meter,
	}
}

// Model reports the heap's size model.
func (h *Heap) Model() SizeModel { return h.model }

// Ticket is a handle to a registered live collection; freeing it removes
// the collection from the live set (the simulator's analogue of the object
// becoming unreachable). The ticket caches the collection's last reported
// semantic-map reading (footprint, kind, context), which is what GC cycles
// aggregate; owners keep it fresh via Sync or Adjust.
//
// A ticket is owned by the goroutine that owns its collection: Sync,
// Adjust and Free may not be called concurrently with each other.
type Ticket struct {
	h      *Heap
	sh     *shard
	slot   int32
	Ep     TicketEpoch
	region int8 // 0 young, 1 old
	age    int8 // minor cycles survived (generational mode)

	// Cached semantic-map reading. The owner is the only writer; GC cycles
	// read the fields atomically, so Sync never takes a lock. A cycle that
	// overlaps a Sync may see live/used/core from different readings — that
	// is within the fuzzy-snapshot contract, and readings are exact whenever
	// the heap is quiesced.
	live   atomic.Int64
	used   atomic.Int64
	core   atomic.Int64
	kind   atomic.Pointer[string]
	ctxKey uint64
}

// TicketEpoch is the owner-local epoch state of the batched publication path
// (the collections wrappers; see docs/CONCURRENCY.md "Epoch-batched
// profiling"): how many operations were recorded since the last flush, the
// size and size class the footprint was last pushed at, and whether the
// cached reading may have gone stale. It is a plain exported field group so
// the wrapper hot path updates it with direct stores, and it sits inside
// Ticket to occupy what would otherwise be padding — a profiled wrapper's
// header stays exactly as large as a plain one's, which measurably matters
// on scan-heavy plain paths.
//
// Like the rest of the ticket's owner-side state it must only be touched by
// the owning goroutine; GC cycles and snapshots never read it.
type TicketEpoch struct {
	CurSize   int32 // size after the latest mutation
	OpsPend   uint8 // operations recorded since the last flush
	SizeClass int8  // size class of the last footprint push
	Dirty     bool  // the footprint may have moved since the last push
	// Shared marks a wrapper backed by a concurrent-native implementation
	// (spec.Kind.Concurrent). Set once at install time, read-only after:
	// it routes the wrapper's instrumentation onto the atomic shared path,
	// because the owner-local fields above assume a single owner. It packs
	// into what was the struct's final padding byte, keeping the epoch
	// state — and the wrapper header — exactly 8 bytes.
	Shared bool
}

// kindInterns interns kind-name strings so tickets can publish kind changes
// as pointer stores without allocating per registration. The set of kinds
// is tiny and fixed, so it is a copy-on-write map: the read path — every
// Register — is one atomic pointer load and a map lookup, no locked
// instructions and no allocation.
var (
	kindInterns atomic.Pointer[map[string]*string]
	kindMu      sync.Mutex
)

func internKind(k string) *string {
	if m := kindInterns.Load(); m != nil {
		if p, ok := (*m)[k]; ok {
			return p
		}
	}
	kindMu.Lock()
	defer kindMu.Unlock()
	nm := make(map[string]*string, 8)
	if old := kindInterns.Load(); old != nil {
		for s, p := range *old {
			nm[s] = p
		}
	}
	if p, ok := nm[k]; ok {
		return p
	}
	p := &k
	nm[k] = p
	kindInterns.Store(&nm)
	return p
}

// Register adds a collection to the live set (young region) and returns
// its ticket. The collection's semantic map is consulted once, on the
// calling goroutine; later changes must be pushed through Sync or Adjust.
func (h *Heap) Register(c Collection) *Ticket {
	t := new(Ticket)
	h.RegisterInto(c, t)
	return t
}

// RegisterInto is Register without the ticket allocation: it initializes t
// (which must be zero or previously freed) in place and adds it to the live
// set. The collection wrappers embed their ticket in the wrapper header,
// saving one heap object per collection — the difference is visible on
// churn-heavy workloads that allocate millions of short-lived collections.
func (h *Heap) RegisterInto(c Collection, t *Ticket) {
	f := c.HeapFootprint()
	t.h = h
	t.ctxKey = c.ContextKey()
	t.region = 0
	t.age = 0
	t.Ep = TicketEpoch{}
	t.live.Store(f.Live)
	t.used.Store(f.Used)
	t.core.Store(f.Core)
	t.kind.Store(internKind(c.KindName()))
	// Shard by allocating goroutine, not a global round-robin counter: a
	// shared atomic here is one cache line every allocating goroutine in
	// the process bounces through. Goroutine affinity spreads load just as
	// well (allocation volume per goroutine is what matters) and keeps the
	// hot allocation path free of cross-core traffic. GC statistics are
	// commutative sums over shards, so placement never affects results.
	sh := &h.shards[gid.Hash()&(numShards-1)]
	t.sh = sh
	sh.mu.Lock()
	t.slot = int32(len(sh.regions[0]))
	sh.regions[0] = append(sh.regions[0], entry{coll: c, ticket: t})
	sh.mu.Unlock()
	h.collLive.Add(f.Live)
	h.bumpPeak()
	h.Allocated(f.Live)
}

// Free removes the ticketed collection from the live set. Freeing twice is
// a no-op.
func (t *Ticket) Free() {
	h := t.h
	if h == nil {
		return
	}
	sh := t.sh
	sh.mu.Lock()
	if t.slot < 0 {
		sh.mu.Unlock()
		return
	}
	region := sh.regions[t.region]
	last := len(region) - 1
	moved := region[last]
	region[t.slot] = moved
	moved.ticket.slot = t.slot
	region[last] = entry{}
	sh.regions[t.region] = region[:last]
	t.slot = -1
	sh.mu.Unlock()
	t.h = nil
	h.collLive.Add(-t.live.Load())
}

// Adjust records a change of delta live bytes for the ticketed collection
// (called by integrations when they grow or shrink). Positive deltas count
// as allocation volume and may trigger a GC cycle. Adjust shifts only the
// live measure of the cached footprint; integrations that track used/core
// bytes should prefer Sync.
func (t *Ticket) Adjust(delta int64) {
	h := t.h
	if h == nil {
		return
	}
	t.live.Add(delta)
	h.collLive.Add(delta)
	if delta > 0 {
		h.bumpPeak()
		h.Allocated(delta)
	}
}

// Sync pushes a fresh semantic-map reading for the ticketed collection:
// the full live/used/core footprint and (when non-empty) the current
// implementation kind name, which internal adaptation may have changed.
// The collection wrappers call this after every mutation that changes the
// footprint, which is what keeps GC-cycle statistics exact without the
// collector ever touching collection internals.
//
// Sync is lock-free: it runs on every wrapper mutation, so it must cost no
// more than a few atomic stores on the ticket's own cache lines. Only a
// live-byte change touches shared counters (and possibly triggers a cycle).
func (t *Ticket) Sync(f Footprint, kind string) {
	h := t.h
	if h == nil {
		return
	}
	// The owner is the only writer, so load-then-store is exact; the loads
	// (plain reads on this ticket's own cache lines) guard the much more
	// expensive stores, which are skipped for components that did not move
	// (live and core change only when capacity changes).
	delta := f.Live - t.live.Load()
	if delta != 0 {
		t.live.Store(f.Live)
	}
	if f.Used != t.used.Load() {
		t.used.Store(f.Used)
	}
	if f.Core != t.core.Load() {
		t.core.Store(f.Core)
	}
	if kind != "" && kind != *t.kind.Load() {
		t.kind.Store(internKind(kind))
	}
	if delta != 0 {
		h.collLive.Add(delta)
	}
	if delta > 0 {
		h.bumpPeak()
		h.Allocated(delta)
	}
}

// Data is a handle to plain (non-collection) application data.
type Data struct {
	h     *Heap
	bytes int64
}

// AllocData records size bytes of live application data and returns a
// handle to free it. Application data is what makes the "collections as a
// percentage of live data" series of Fig. 2 meaningful.
func (h *Heap) AllocData(size int64) *Data {
	size = h.model.AlignUp(size)
	h.dataLive.Add(size)
	h.bumpPeak()
	h.Allocated(size)
	return &Data{h: h, bytes: size}
}

// Free releases the application data. Freeing twice is a no-op.
func (d *Data) Free() {
	if d.h == nil {
		return
	}
	d.h.dataLive.Add(-d.bytes)
	d.h = nil
}

// Allocated records allocation volume (churn) without changing the live
// set, and runs a GC cycle when the inter-cycle threshold is crossed.
// Short-lived garbage (the PMD pathology, §5.3) shows up as churn: it does
// not raise peak live data but forces more frequent cycles. In
// generational mode most triggers run a cheap minor cycle.
//
// Under concurrency each threshold crossing is claimed by exactly one
// goroutine (a CAS on the since-GC counter), so the cycle count for a
// given allocation volume is the same as in a single-goroutine run.
func (h *Heap) Allocated(bytes int64) {
	if h.sinceGC.Add(bytes) >= h.gcThreshold {
		h.maybeGC()
	}
}

// totalAllocated derives the total allocation volume: every byte ever
// passed to Allocated is either still in the since-GC window or was
// claimed (threshold bytes at a time) by a triggered cycle.
func (h *Heap) totalAllocated() int64 {
	return h.sinceGC.Load() + h.gcThreshold*h.cycleClaims.Load()
}

// maybeGC claims and runs cycles while the since-GC volume exceeds the
// threshold. The CAS both elects the triggering goroutine and carries the
// leftover volume into the next inter-cycle window, exactly like the old
// single-threaded subtraction loop.
func (h *Heap) maybeGC() {
	for {
		cur := h.sinceGC.Load()
		if cur < h.gcThreshold {
			return
		}
		if h.sinceGC.CompareAndSwap(cur, cur-h.gcThreshold) {
			h.cycleClaims.Add(1)
			h.runCycle()
		}
	}
}

// runCycle runs one triggered cycle: in generational mode, a minor cycle
// unless the major cadence is due.
func (h *Heap) runCycle() {
	h.gcMu.Lock()
	defer h.gcMu.Unlock()
	if h.generational {
		h.gcTriggers++
		if h.gcTriggers%(h.minorPerMajor+1) == 0 {
			h.gcLocked()
		} else {
			h.minorGCLocked()
		}
	} else {
		h.gcLocked()
	}
}

// promoteAge is the number of minor cycles a young collection must survive
// before promotion to the old region.
const promoteAge = 2

// MinorGC runs a generational minor cycle: it walks only the young region,
// ages survivors, and promotes those that have survived promoteAge minor
// cycles. Minor cycles record no Table 3 statistics (the collection-aware
// bookkeeping piggybacks on full marking, which only major cycles perform).
func (h *Heap) MinorGC() {
	h.gcMu.Lock()
	defer h.gcMu.Unlock()
	h.minorGCLocked()
}

func (h *Heap) minorGCLocked() {
	h.numMinorGC++
	for si := range h.shards {
		sh := &h.shards[si]
		sh.mu.Lock()
		young := sh.regions[0]
		var kept int
		for i := range young {
			e := young[i]
			e.ticket.age++
			if e.ticket.age >= promoteAge {
				e.ticket.region = 1
				e.ticket.slot = int32(len(sh.regions[1]))
				sh.regions[1] = append(sh.regions[1], e)
				h.promotedBytes += e.ticket.live.Load()
				continue
			}
			e.ticket.slot = int32(kept)
			young[kept] = e
			kept++
		}
		for i := kept; i < len(young); i++ {
			young[i] = entry{}
		}
		sh.regions[0] = young[:kept]
		sh.mu.Unlock()
	}
}

func (h *Heap) bumpPeak() {
	v := h.dataLive.Load() + h.collLive.Load()
	for {
		p := h.peakLive.Load()
		if v <= p || h.peakLive.CompareAndSwap(p, v) {
			break
		}
	}
	if h.limit > 0 && v > h.limit {
		panic(OOMError{Needed: v, Limit: h.limit})
	}
}

// GC runs one simulated major collection cycle: it walks the live set
// shard by shard, aggregates every collection's cached semantic-map
// reading, records the Table 3 statistics, and notifies the observer.
//
// Shards are visited sequentially, each under its own lock, so a cycle
// taken while other goroutines allocate is a fuzzy snapshot: it is
// internally consistent per shard, and exact whenever the heap is quiesced
// (see docs/CONCURRENCY.md).
func (h *Heap) GC() {
	h.gcMu.Lock()
	defer h.gcMu.Unlock()
	h.gcLocked()
}

func (h *Heap) gcLocked() {
	var walkStart time.Time
	if h.meter != nil {
		walkStart = time.Now()
	}
	h.numGC++
	cs := CycleStats{
		Cycle:      h.numGC,
		TypeDist:   make(map[string]int64),
		PerContext: make(map[uint64]ContextCycle),
	}
	var coll Footprint
	var objects int64
	for si := range h.shards {
		sh := &h.shards[si]
		sh.mu.Lock()
		for r := range sh.regions {
			for i := range sh.regions[r] {
				t := sh.regions[r][i].ticket
				f := Footprint{
					Live: t.live.Load(),
					Used: t.used.Load(),
					Core: t.core.Load(),
				}
				coll = coll.Add(f)
				cs.TypeDist[*t.kind.Load()] += f.Live
				cc := cs.PerContext[t.ctxKey]
				cc.Footprint = cc.Footprint.Add(f)
				cc.Objects++
				cs.PerContext[t.ctxKey] = cc
				objects++
			}
		}
		sh.mu.Unlock()
	}
	if h.meter != nil {
		h.meter.Record(governor.SrcGCWalk, time.Since(walkStart))
	}
	cs.Collections = coll
	cs.CollectionObjects = objects
	cs.LiveData = h.dataLive.Load() + coll.Live

	h.totLiveData += cs.LiveData
	if cs.LiveData > h.maxLiveData {
		h.maxLiveData = cs.LiveData
	}
	h.totColl = h.totColl.Add(coll)
	if coll.Live > h.maxColl.Live {
		h.maxColl.Live = coll.Live
	}
	if coll.Used > h.maxColl.Used {
		h.maxColl.Used = coll.Used
	}
	if coll.Core > h.maxColl.Core {
		h.maxColl.Core = coll.Core
	}
	h.totCollObjs += cs.CollectionObjects
	if cs.CollectionObjects > h.maxCollObjs {
		h.maxCollObjs = cs.CollectionObjects
	}

	if h.observer != nil {
		h.observer.ObserveCycle(&cs)
	}
	if h.keepSnaps {
		kept := cs
		if !h.keepCtx {
			kept.PerContext = nil
		}
		h.snapshots = append(h.snapshots, kept)
	}
}

// Stats is the heap-wide summary after (or during) a run.
type Stats struct {
	NumGC             int
	NumMinorGC        int
	PromotedBytes     int64
	TotalAllocated    int64
	PeakLive          int64 // high-water mark of live bytes; the minimal-heap measure
	TotalLiveData     int64 // sum over cycles (Table 1 "Overall live data", Total)
	MaxLiveData       int64 // max over cycles (Table 1 "Overall live data", Max)
	TotalCollections  Footprint
	MaxCollections    Footprint
	TotalCollectionNo int64
	MaxCollectionNo   int64
}

// Stats reports the heap-wide aggregates.
func (h *Heap) Stats() Stats {
	h.gcMu.Lock()
	defer h.gcMu.Unlock()
	return Stats{
		NumGC:             h.numGC,
		NumMinorGC:        h.numMinorGC,
		PromotedBytes:     h.promotedBytes,
		TotalAllocated:    h.totalAllocated(),
		PeakLive:          h.peakLive.Load(),
		TotalLiveData:     h.totLiveData,
		MaxLiveData:       h.maxLiveData,
		TotalCollections:  h.totColl,
		MaxCollections:    h.maxColl,
		TotalCollectionNo: h.totCollObjs,
		MaxCollectionNo:   h.maxCollObjs,
	}
}

// LiveCollections reports the number of currently registered collections.
// It sums the shard registries on demand; registration and freeing keep no
// global count, so the allocation path stays free of the shared counter.
func (h *Heap) LiveCollections() int {
	var n int
	for si := range h.shards {
		sh := &h.shards[si]
		sh.mu.Lock()
		n += len(sh.regions[0]) + len(sh.regions[1])
		sh.mu.Unlock()
	}
	return n
}

// LiveBytes reports the current live bytes (data plus collections, running
// estimate).
func (h *Heap) LiveBytes() int64 { return h.dataLive.Load() + h.collLive.Load() }

// Snapshots reports the retained per-cycle statistics (requires
// Config.KeepSnapshots).
func (h *Heap) Snapshots() []CycleStats {
	h.gcMu.Lock()
	defer h.gcMu.Unlock()
	return h.snapshots
}

// MinimalHeap reports the simulated minimal heap size required to run the
// program so far: the live-data high-water mark rounded up to the size
// model's alignment. Paper §5.2 step 6 evaluates optimizations by this
// measure.
func (h *Heap) MinimalHeap() int64 { return h.model.AlignUp(h.peakLive.Load()) }

// FormatTypeDist renders a Table 3 type distribution sorted by descending
// live size, for reports.
func FormatTypeDist(dist map[string]int64) string {
	type kv struct {
		k string
		v int64
	}
	rows := make([]kv, 0, len(dist))
	for k, v := range dist {
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].v != rows[j].v {
			return rows[i].v > rows[j].v
		}
		return rows[i].k < rows[j].k
	})
	var b strings.Builder
	for i, r := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%d", r.k, r.v)
	}
	return b.String()
}
