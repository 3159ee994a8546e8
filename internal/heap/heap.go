package heap

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/alloctx"
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
// semantic map while another goroutine mutates the collection, so owners
// push footprint changes through Ticket.Sync instead, and the heap calls
// HeapFootprint only once, at RegisterInto time. The allocation context is
// not the collection's to report: the owner passes it to RegisterInto.
type Collection interface {
	// HeapFootprint reports the current live/used/core bytes of the
	// collection and all its internal objects under the heap's size model.
	HeapFootprint() Footprint
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
	// TypeDist is the live-size breakdown per implementation type. Only
	// heaps that keep snapshots compute it; it is nil otherwise.
	TypeDist map[string]int64
	// PerContext holds every allocation context with live collections in
	// this cycle, in slot order; the profiler records it into each
	// context's ContextInfo (paper §4.3.1). The heap reuses the slice, so
	// an observer must copy what it keeps.
	PerContext []ContextCycle
}

// ContextCycle is one context's collection footprint within a single cycle.
type ContextCycle struct {
	Key       uint64
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
	// draw the Fig. 2 / Fig. 8 per-cycle series) and makes cycles compute
	// TypeDist. PerContext is retained only when KeepContexts is also set.
	KeepSnapshots bool
	// KeepContexts retains per-context data inside kept snapshots.
	KeepContexts bool
	// Limit, when positive, is a hard cap on live bytes: an allocation
	// that would push the live set past it panics with an OOMError. This
	// is how "the minimal heap-size required to run the application"
	// (§2.1, §5.2) is made operational: a run completes iff its peak live
	// data fits the limit.
	Limit int64
	// Meter, when non-nil, receives the self-measured cost of every GC
	// cycle's statistics for the overhead governor.
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

// sums is one stripe's running total for one context slot: the footprint
// and count of its live collections, and its context key. It fills a
// 64-byte size class, so sums of different stripes never share a line.
type sums struct {
	live, used, core, objs atomic.Int64
	key                    atomic.Uint64
	_                      [24]byte
}

// add books a footprint change and an object-count change.
func (s *sums) add(f Footprint, objs int64) {
	if f.Live != 0 {
		s.live.Add(f.Live)
	}
	if f.Used != 0 {
		s.used.Add(f.Used)
	}
	if f.Core != 0 {
		s.core.Add(f.Core)
	}
	if objs != 0 {
		s.objs.Add(objs)
	}
}

// numStripes is the number of sum stripes (a power of two). Changes add
// into the calling goroutine's stripe, so goroutines allocating at one
// context rarely bounce a cache line; a cycle folds the stripes together.
const numStripes = 4

// stripe holds sums by context slot. A slot's sums are allocated on first
// touch and never move, so adders take no lock; mu serializes filling a
// slot and doubling the array, so memory grows with the slots used.
type stripe struct {
	mu    sync.Mutex
	slots atomic.Pointer[[]atomic.Pointer[sums]]
}

// at returns the sums of slot i.
func (st *stripe) at(i int32) *sums {
	if d := st.slots.Load(); d != nil && int(i) < len(*d) {
		if s := (*d)[i].Load(); s != nil {
			return s
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	d := st.slots.Load()
	if d == nil || int(i) >= len(*d) {
		grown := make([]atomic.Pointer[sums], max(16, 2*int(i)))
		if d != nil {
			for j := range *d {
				grown[j].Store((*d)[j].Load())
			}
		}
		st.slots.Store(&grown)
		d = &grown
	}
	s := (*d)[i].Load()
	if s == nil {
		s = new(sums)
		(*d)[i].Store(s)
	}
	return s
}

// kindSum is the live bytes and count of one kind's live collections.
type kindSum struct{ live, objs int64 }

// Heap is a simulated managed heap. It tracks plain application data by
// size, tracks collections through their semantic maps, triggers GC cycles
// by allocation volume, and maintains the aggregate statistics the
// Chameleon profiler consumes. Like the paper's collector, it gathers them
// piggybacked on work already done: every registration, sync, adjust and
// free adds its footprint change into running per-context sums, and a GC
// cycle only adds those up.
//
// Heap is safe for concurrent use: counters on the allocation path are
// atomic, the running sums are striped by goroutine, and GC cycles run
// under a single writer lock (see docs/CONCURRENCY.md). Individual
// collections remain single-owner, which is what lets owners push
// footprint changes instead of the collector reading collections.
type Heap struct {
	model       SizeModel
	gcThreshold int64
	observer    Observer
	keepSnaps   bool
	keepCtx     bool
	limit       int64
	meter       *governor.Meter

	// Allocation-path accounting: contention-free atomics. Total allocation
	// volume is not a counter of its own — it is derived as
	// sinceGC + gcThreshold*cycleClaims, which keeps the per-allocation
	// hot path at a single atomic add (sinceGC).
	dataLive    atomic.Int64 // live bytes of plain application data
	collLive    atomic.Int64 // live bytes of collections
	peakLive    atomic.Int64 // high-water mark of dataLive+collLive
	sinceGC     atomic.Int64 // bytes allocated since the last claimed cycle
	cycleClaims atomic.Int64 // threshold crossings claimed by maybeGC

	stripes [numStripes]stripe

	// kinds sums live bytes by kind (Table 3) on heaps keeping snapshots.
	kindMu sync.Mutex
	kinds  map[string]kindSum

	// gcMu is the single-writer GC lock: one cycle runs at a time, and it
	// also guards the cross-cycle aggregates and buffers below.
	gcMu  sync.Mutex
	numGC int

	// Aggregates across cycles (the Total/Max columns of Table 1).
	totLiveData int64
	maxLiveData int64
	totColl     Footprint
	maxColl     Footprint
	totCollObjs int64
	maxCollObjs int64

	bySlot    []ContextCycle // fold buffer, reused across cycles
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
	return &Heap{
		model:       cfg.Model,
		gcThreshold: cfg.GCThreshold,
		observer:    cfg.Observer,
		keepSnaps:   cfg.KeepSnapshots,
		keepCtx:     cfg.KeepContexts,
		limit:       cfg.Limit,
		meter:       cfg.Meter,
		kinds:       make(map[string]kindSum),
	}
}

// Model reports the heap's size model.
func (h *Heap) Model() SizeModel { return h.model }

// stripe returns the calling goroutine's stripe. The sums commute, so the
// stripe a change lands in never affects results.
func (h *Heap) stripe() *stripe {
	return &h.stripes[gid.Hash()&(numStripes-1)]
}

// Ticket is a handle to a registered live collection; freeing it removes
// the collection from the live set (the simulator's analogue of the object
// becoming unreachable). It holds the collection's context slot and last
// pushed semantic-map reading, which every change is booked against.
//
// A ticket is owned by the goroutine that owns its collection: Free may
// not run concurrently with another Free or with Sync. Concurrent Syncs of
// one ticket are exact as long as they do not change its kind.
type Ticket struct {
	h    *Heap
	Ep   TicketEpoch
	slot int32

	// kind is set only on heaps that keep snapshots; only the owner
	// changes it.
	kind string
	live atomic.Int64
	used atomic.Int64
	core atomic.Int64
}

// TicketEpoch is the owner-local epoch state of the batched publication path
// (the collections wrappers; see docs/CONCURRENCY.md "Epoch-batched
// profiling"): how many operations were recorded since the last flush, the
// size and size class the footprint was last pushed at, and whether the
// pushed reading may have gone stale. It is a plain exported field group so
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
}

// RegisterInto adds a collection to the live set: it initializes t (which
// must be zero or previously freed) in place and books c under ctx (nil:
// no context). The collection's semantic map is consulted once, on the
// calling goroutine; later changes must be pushed through t.Sync. Every
// context a heap sees must come from one alloctx.Table. Owners embed the
// ticket in the collection (the library wrappers in their header), so
// registration allocates nothing.
func (h *Heap) RegisterInto(c Collection, t *Ticket, ctx *alloctx.Context) {
	f := c.HeapFootprint()
	t.h = h
	t.slot = ctx.Slot()
	t.Ep = TicketEpoch{}
	t.live.Store(f.Live)
	t.used.Store(f.Used)
	t.core.Store(f.Core)
	// Book the change before Allocated can run a cycle, so a cycle
	// triggered by this very registration already counts it.
	s := h.stripe().at(t.slot)
	if k := ctx.Key(); k != 0 && s.key.Load() != k {
		s.key.Store(k)
	}
	s.add(f, 1)
	if h.keepSnaps {
		t.kind = c.KindName()
		h.addKind(t.kind, f.Live, 1)
	}
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
	t.h = nil
	f := Footprint{Live: t.live.Load(), Used: t.used.Load(), Core: t.core.Load()}
	h.stripe().at(t.slot).add(Footprint{Live: -f.Live, Used: -f.Used, Core: -f.Core}, -1)
	if h.keepSnaps {
		h.addKind(t.kind, -f.Live, -1)
	}
	h.collLive.Add(-f.Live)
}

// Sync pushes a fresh semantic-map reading for the ticketed collection:
// the full live/used/core footprint and (when non-empty) the current
// implementation kind name, which internal adaptation may have changed.
// The collection wrappers call this after every mutation that changes the
// footprint, which is what keeps GC-cycle statistics exact without the
// collector ever touching collection internals.
//
// Sync is lock-free: a few atomic operations on the ticket plus one add per
// moved component into the caller's stripe. Each component is swapped in,
// so concurrent pushes of one ticket book deltas that add up exactly. The
// change is booked before Allocated can run a cycle, so a cycle it
// triggers already sees it. Only the owner may change the ticket's kind.
func (t *Ticket) Sync(f Footprint, kind string) {
	h := t.h
	if h == nil {
		return
	}
	// The loads (on this ticket's own cache lines) guard the much more
	// expensive swaps, which are skipped for components that did not move
	// (live and core change only when capacity changes).
	var d Footprint
	if f.Live != t.live.Load() {
		d.Live = f.Live - t.live.Swap(f.Live)
	}
	if f.Used != t.used.Load() {
		d.Used = f.Used - t.used.Swap(f.Used)
	}
	if f.Core != t.core.Load() {
		d.Core = f.Core - t.core.Swap(f.Core)
	}
	if d != (Footprint{}) {
		h.stripe().at(t.slot).add(d, 0)
	}
	if h.keepSnaps && kind != "" && kind != t.kind {
		booked := f.Live - d.Live // the live bytes the old kind holds
		h.addKind(t.kind, -booked, -1)
		t.kind = kind
		h.addKind(kind, f.Live, 1)
	} else if h.keepSnaps && d.Live != 0 {
		h.addKind(t.kind, d.Live, 0)
	}
	if d.Live != 0 {
		h.collLive.Add(d.Live)
	}
	if d.Live > 0 {
		h.bumpPeak()
		h.Allocated(d.Live)
	}
}

// addKind books a change to one kind's sum (heaps that keep snapshots).
func (h *Heap) addKind(kind string, live, objs int64) {
	h.kindMu.Lock()
	k := h.kinds[kind]
	k.live += live
	k.objs += objs
	h.kinds[kind] = k
	h.kindMu.Unlock()
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
// not raise peak live data but forces more frequent cycles.
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
			h.GC()
		}
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

// GC runs one simulated collection cycle: it adds up the running per-
// context sums, records the Table 3 statistics, and notifies the observer.
// The sums are read without locks, so a cycle taken while other goroutines
// allocate is a fuzzy snapshot, exact whenever the heap is quiesced.
func (h *Heap) GC() {
	h.gcMu.Lock()
	defer h.gcMu.Unlock()
	var foldStart time.Time
	if h.meter != nil {
		foldStart = time.Now()
	}
	h.numGC++
	cs := CycleStats{Cycle: h.numGC}

	// Keep the slots with live collections, compacting the fold in place.
	perContext := h.fold()[:0]
	for _, cc := range h.bySlot {
		cs.Collections = cs.Collections.Add(cc.Footprint)
		cs.CollectionObjects += cc.Objects
		if cc.Objects > 0 {
			perContext = append(perContext, cc)
		}
	}
	cs.PerContext = perContext
	if h.keepSnaps {
		cs.TypeDist = h.typeDist()
	}
	if h.meter != nil {
		h.meter.Record(governor.SrcGCWalk, time.Since(foldStart))
	}
	coll := cs.Collections
	cs.LiveData = h.dataLive.Load() + coll.Live

	h.totLiveData += cs.LiveData
	h.maxLiveData = max(h.maxLiveData, cs.LiveData)
	h.totColl = h.totColl.Add(coll)
	h.maxColl = h.maxColl.Max(coll)
	h.totCollObjs += cs.CollectionObjects
	h.maxCollObjs = max(h.maxCollObjs, cs.CollectionObjects)

	if h.observer != nil {
		h.observer.ObserveCycle(&cs)
	}
	if h.keepSnaps {
		if h.keepCtx {
			cs.PerContext = slices.Clone(perContext)
		} else {
			cs.PerContext = nil
		}
		h.snapshots = append(h.snapshots, cs)
	}
}

// fold adds the stripes' sums up by slot into the reused bySlot buffer.
// The caller holds gcMu.
func (h *Heap) fold() []ContextCycle {
	clear(h.bySlot)
	for i := range h.stripes {
		d := h.stripes[i].slots.Load()
		for j := 0; d != nil && j < len(*d); j++ {
			s := (*d)[j].Load()
			if s == nil {
				continue
			}
			if j >= len(h.bySlot) {
				h.bySlot = append(h.bySlot, make([]ContextCycle, j+1-len(h.bySlot))...)
			}
			cc := &h.bySlot[j]
			cc.Footprint = cc.Footprint.Add(Footprint{Live: s.live.Load(), Used: s.used.Load(), Core: s.core.Load()})
			cc.Objects += s.objs.Load()
			if k := s.key.Load(); k != 0 {
				cc.Key = k
			}
		}
	}
	return h.bySlot
}

// typeDist reports the Table 3 type breakdown: the live bytes of every
// kind with live collections.
func (h *Heap) typeDist() map[string]int64 {
	h.kindMu.Lock()
	defer h.kindMu.Unlock()
	dist := make(map[string]int64)
	for kind, k := range h.kinds {
		if k.objs > 0 {
			dist[kind] = k.live
		}
	}
	return dist
}

// Stats is the heap-wide summary after (or during) a run.
type Stats struct {
	NumGC             int
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

// LiveCollections reports the number of currently registered collections:
// the sum of the running object counts, exact whenever the heap is
// quiesced.
func (h *Heap) LiveCollections() int {
	h.gcMu.Lock()
	defer h.gcMu.Unlock()
	var n int64
	for _, cc := range h.fold() {
		n += cc.Objects
	}
	return int(n)
}

// LiveBytes reports the current live bytes (data plus collections).
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
