// Package profiler implements Chameleon's semantic collections profiler
// (paper §3.2): per-instance usage records (ObjectContextInfo) that are
// folded, when the instance dies or at snapshot time, into per-allocation-
// context aggregates (ContextInfo) holding the full Table 1 statistics —
// operation-count distributions with averages and standard deviations,
// maximal-size distributions, initial capacities, and the heap statistics
// (live/used/core, object counts) recorded by the collection-aware GC on
// every cycle.
//
// The profiler is safe for concurrent use. The context table is split into
// shards keyed by context hash, so sessions allocating from many goroutines
// contend only when they hit the same shard. Instance counters are atomics:
// the owning goroutine is the only writer, but snapshots may read them while
// operations are in flight, and the race detector demands (correctly) that
// those reads be synchronized.
package profiler

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/alloctx"
	"chameleon/internal/governor"
	"chameleon/internal/heap"
	"chameleon/internal/spec"
	"chameleon/internal/stats"
)

// Instance is the per-collection-object usage record — the paper's
// ObjectContextInfo (§4.2). It is owned by a single collection wrapper;
// only the owner mutates it, but snapshot readers may observe it mid-flight,
// so the counters are atomic.
type Instance struct {
	p          *Profiler
	info       *ContextInfo
	ops        [spec.NumOps]atomic.Int64
	maxSize    atomic.Int64
	finalSize  atomic.Int64
	emptyIters atomic.Int64
	initialCap int64
	slot       int // index into info.live; guarded by the owning shard's mu
	dead       atomic.Bool

	// winGen is the evidence-window generation the instance was allocated
	// under (see ContextInfo.win). Written in OnAlloc and read in OnDeath /
	// WindowSnapshot, all under the owning shard's mutex.
	winGen int64

	// pend is the owner-local epoch buffer: the Buffer* methods accumulate
	// plain (non-atomic) counts here and FlushPending drains them into the
	// atomic counters above. Only the owning goroutine ever touches it —
	// snapshot readers fold the atomics only — so buffering an operation
	// costs no synchronization at all.
	pend pending
}

// pending holds per-epoch counts not yet published to snapshot readers.
type pending struct {
	ops       [spec.NumOps]uint8
	mask      uint32 // bit i set iff ops[i] != 0 (NumOps <= 32)
	max       int32  // max size observed this epoch
	empty     uint8  // empty-iterator observations this epoch
	sizeDirty bool   // a mutation moved the size this epoch
}

// Record counts one operation.
func (in *Instance) Record(op spec.Op) {
	if in == nil {
		return
	}
	in.ops[op].Add(1)
}

// NoteSize records the collection's size after an operation, maintaining
// the maximal-size and final-size trace statistics.
func (in *Instance) NoteSize(n int) {
	if in == nil {
		return
	}
	s := int64(n)
	// The owner is the only writer, so plain load-then-store suffices; the
	// load-guards skip the (much more expensive) atomic stores when the
	// size did not move, which is the common case for overwrites.
	if s > in.maxSize.Load() {
		in.maxSize.Store(s)
	}
	if in.finalSize.Load() != s {
		in.finalSize.Store(s)
	}
}

// NoteEmptyIterator records an iterator created over an empty collection
// (the redundant-iterator rule of Table 2).
func (in *Instance) NoteEmptyIterator() {
	if in == nil {
		return
	}
	in.emptyIters.Add(1)
}

// Buffer counts one operation in the owner-local pending buffer; snapshot
// readers only see it at the next FlushPending. Owner-only, non-atomic.
func (in *Instance) Buffer(op spec.Op) {
	in.pend.ops[op]++
	in.pend.mask |= 1 << uint(op)
}

// BufferSize notes the collection's size after a buffered mutation.
func (in *Instance) BufferSize(n int32) {
	if n > in.pend.max {
		in.pend.max = n
	}
	in.pend.sizeDirty = true
}

// BufferEmptyIterator notes an iterator created over an empty collection.
func (in *Instance) BufferEmptyIterator() {
	in.pend.empty++
}

// FlushPending drains the pending buffer into the atomic counters, making
// everything buffered since the previous flush visible to snapshots. final
// is the collection's current size; it is published only when a buffered
// mutation moved the size.
func (in *Instance) FlushPending(final int64) {
	for m := in.pend.mask; m != 0; m &= m - 1 {
		op := spec.Op(bits.TrailingZeros32(m))
		in.ops[op].Add(int64(in.pend.ops[op]))
		in.pend.ops[op] = 0
	}
	in.pend.mask = 0
	if in.pend.sizeDirty {
		// max is the largest size buffered since the previous flush.
		if max := int64(in.pend.max); max > in.maxSize.Load() {
			in.maxSize.Store(max)
		}
		if in.finalSize.Load() != final {
			in.finalSize.Store(final)
		}
		in.pend.sizeDirty = false
		in.pend.max = 0
	}
	if in.pend.empty != 0 {
		in.emptyIters.Add(int64(in.pend.empty))
		in.pend.empty = 0
	}
}

// reset zeroes the record for recycling. Load-guarded stores skip the
// atomic writes for counters that are already zero (most of the op array,
// for any one collection); the dead flag deliberately stays true until
// OnAlloc re-arms the record, so a stale double-OnDeath remains a no-op
// even after the record has been returned to the pool.
func (in *Instance) reset() {
	for i := range in.ops {
		if in.ops[i].Load() != 0 {
			in.ops[i].Store(0)
		}
	}
	if in.maxSize.Load() != 0 {
		in.maxSize.Store(0)
	}
	if in.finalSize.Load() != 0 {
		in.finalSize.Store(0)
	}
	if in.emptyIters.Load() != 0 {
		in.emptyIters.Store(0)
	}
	in.pend = pending{}
	in.info = nil
	in.initialCap = 0
	in.slot = 0
	in.winGen = 0
}

// ContextInfo aggregates all statistics for one allocation context — the
// paper's ContextInfo object, combining library trace information with the
// heap information the GC records per cycle. It is guarded by the mutex of
// the shard its key hashes to.
type ContextInfo struct {
	key      uint64
	ctx      *alloctx.Context
	owner    *Profiler // validates the alloctx scratch-slot cache
	declared spec.Kind
	impl     spec.Kind

	allocs int64
	deaths int64

	// live holds this context's currently-live instances, so a single-
	// context snapshot folds only them instead of scanning every live
	// instance in the session.
	live []*Instance

	// win, when non-nil, is the open post-decision evidence window: a
	// second, smaller aggregate that only folds instances allocated after
	// OpenWindow (their winGen matches the context's). The online selector
	// uses it to judge a decision on what happened *after* the decision was
	// applied, instead of on the lifetime statistics that justified it.
	// Heap statistics are not windowed — GC cycles observe the whole
	// context — so a window profile carries trace statistics only.
	win    *ContextInfo
	winGen int64

	opTotals [spec.NumOps]int64
	opStats  [spec.NumOps]stats.Welford
	maxSize  stats.Welford
	finalSz  stats.Welford
	initCap  stats.Welford
	sizeHist *stats.Histogram

	emptyIters int64

	// Heap statistics recorded by the collection-aware GC.
	totHeap  heap.Footprint
	maxHeap  heap.Footprint
	totObjs  int64
	maxObjs  int64
	gcCycles int64
}

func (ci *ContextInfo) fold(in *Instance) {
	ci.deaths++
	for op := spec.Op(0); op < spec.NumOps; op++ {
		n := in.ops[op].Load()
		ci.opTotals[op] += n
		ci.opStats[op].Add(float64(n))
	}
	maxSize := in.maxSize.Load()
	ci.maxSize.Add(float64(maxSize))
	ci.finalSz.Add(float64(in.finalSize.Load()))
	ci.initCap.Add(float64(in.initialCap))
	ci.sizeHist.Add(maxSize)
	ci.emptyIters += in.emptyIters.Load()
}

func (ci *ContextInfo) clone() *ContextInfo {
	cp := *ci
	cp.live = nil
	cp.win = nil // folding into a clone must never reach the shared window
	cp.sizeHist = stats.NewHistogram()
	cp.sizeHist.Merge(ci.sizeHist)
	return &cp
}

const numShards = 16

// profShard is one slice of the context table.
type profShard struct {
	mu       sync.Mutex
	contexts map[uint64]*ContextInfo
	live     int
}

// Profiler is the semantic collections profiler. It owns the sharded
// per-context table (each context also carrying its live-instance registry)
// and implements heap.Observer so the simulated collector can push per-cycle,
// per-context heap statistics into it (paper §4.3.1).
type Profiler struct {
	shards [numShards]profShard

	// pool recycles Instance records: OnDeath resets a folded record and
	// returns it, OnAlloc re-arms one instead of allocating. This takes the
	// per-collection record allocation off the Go GC entirely on steady
	// alloc/free workloads.
	pool sync.Pool

	// numContexts counts tracked contexts, so Contexts() is one atomic
	// load instead of locking every shard.
	numContexts atomic.Int64

	// meter, when set, receives the self-measured cost of snapshot/window
	// folds for the overhead governor.
	meter atomic.Pointer[governor.Meter]
}

// New returns an empty profiler.
func New() *Profiler {
	p := &Profiler{}
	for i := range p.shards {
		p.shards[i].contexts = make(map[uint64]*ContextInfo)
	}
	return p
}

func (p *Profiler) shardFor(key uint64) *profShard {
	return &p.shards[key&(numShards-1)]
}

// SetMeter wires the overhead governor's cost meter into the profiler's
// snapshot/window-fold seams. A nil meter (the default) records nothing.
func (p *Profiler) SetMeter(m *governor.Meter) { p.meter.Store(m) }

// timeFolds starts a window-fold cost measurement; call the returned func
// when the fold completes. Zero-cost (nil func guard aside) when no meter
// is installed.
func (p *Profiler) timeFolds() func() {
	m := p.meter.Load()
	if m == nil {
		return nil
	}
	t0 := time.Now()
	return func() { m.Record(governor.SrcWindowFold, time.Since(t0)) }
}

// contextFor returns the ContextInfo for key, creating it if needed. The
// caller must hold the owning shard's mutex.
func (p *Profiler) contextFor(sh *profShard, key uint64, ctx *alloctx.Context, declared spec.Kind) *ContextInfo {
	ci, ok := sh.contexts[key]
	if !ok {
		ci = &ContextInfo{key: key, ctx: ctx, owner: p, declared: declared, sizeHist: stats.NewHistogram()}
		sh.contexts[key] = ci
		p.numContexts.Add(1)
	}
	return ci
}

// OnAlloc registers a new collection instance allocated at ctx, declared as
// the given kind, and actually implemented by impl with the given initial
// capacity. The returned Instance must be passed to OnDeath when the
// collection becomes unreachable, and must not be used after that.
//
// The hot path is a recycled record plus one shard-lock append: the
// context's ContextInfo is cached in the alloctx.Context scratch slot after
// the first allocation, so repeat allocations from a hot context skip the
// table lookup entirely.
func (p *Profiler) OnAlloc(ctx *alloctx.Context, declared, impl spec.Kind, initialCap int) *Instance {
	key := ctx.Key()
	in, _ := p.pool.Get().(*Instance)
	if in == nil {
		in = &Instance{}
	}
	in.p = p
	in.initialCap = int64(initialCap)
	// A ContextInfo is never removed once created, so a cached aggregate
	// from this profiler is always current.
	ci, _ := ctx.Scratch().(*ContextInfo)
	sh := p.shardFor(key)
	sh.mu.Lock()
	if ci == nil || ci.owner != p || ci.key != key {
		ci = p.contextFor(sh, key, ctx, declared)
		ctx.SetScratch(ci)
	}
	ci.impl = impl // reflect the most recent selection (online mode may change it)
	ci.allocs++
	in.info = ci
	in.slot = len(ci.live)
	in.winGen = ci.winGen
	if ci.win != nil {
		ci.win.allocs++
	}
	in.dead.Store(false)
	ci.live = append(ci.live, in)
	sh.live++
	sh.mu.Unlock()
	return in
}

// OnDeath folds the instance's usage record into its context and recycles
// the record. Calling it twice — even concurrently — is a no-op (mirroring
// finalizers running at most once): the dead flag is claimed with a
// compare-and-swap before any shared state is touched, and stays claimed
// until OnAlloc re-arms the recycled record, so a stale second OnDeath
// after the fold also stays a no-op. The caller must drop every reference
// to the instance once OnDeath returns.
func (p *Profiler) OnDeath(in *Instance) {
	if in == nil || !in.dead.CompareAndSwap(false, true) {
		return
	}
	ci := in.info
	sh := p.shardFor(ci.key)
	sh.mu.Lock()
	last := len(ci.live) - 1
	moved := ci.live[last]
	ci.live[in.slot] = moved
	moved.slot = in.slot
	ci.live[last] = nil
	ci.live = ci.live[:last]
	sh.live--
	ci.fold(in)
	if ci.win != nil && in.winGen == ci.winGen {
		ci.win.fold(in)
	}
	sh.mu.Unlock()
	// The record is no longer reachable from the profiler (snapshots fold
	// only the live list, which it just left under the shard lock), so it
	// can be reset and recycled outside the lock.
	in.reset()
	p.pool.Put(in)
}

// ObserveCycle implements heap.Observer: it records the per-context heap
// footprints of one GC cycle into each context's aggregates (the Total/Max
// heap columns of Table 1). The cycle lists only contexts with live
// collections, so gcCycles counts the cycles a context had any.
func (p *Profiler) ObserveCycle(c *heap.CycleStats) {
	for _, cc := range c.PerContext {
		sh := p.shardFor(cc.Key)
		sh.mu.Lock()
		// A context unknown here is a heap-tracked collection without trace
		// tracking (e.g. a custom collection profiled only through its
		// semantic map).
		ci := p.contextFor(sh, cc.Key, nil, spec.KindNone)
		ci.gcCycles++
		ci.totHeap = ci.totHeap.Add(cc.Footprint)
		ci.maxHeap = ci.maxHeap.Max(cc.Footprint)
		ci.totObjs += cc.Objects
		ci.maxObjs = max(ci.maxObjs, cc.Objects)
		sh.mu.Unlock()
	}
}

// LiveInstances reports the number of collections currently tracked.
func (p *Profiler) LiveInstances() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += sh.live
		sh.mu.Unlock()
	}
	return n
}

// Contexts reports the number of tracked allocation contexts in one atomic
// load. Contexts are only ever created, and every key is an alloctx.Table
// key (or 0 for untracked allocations), so the table's context budget
// bounds this count too (docs/ROBUSTNESS.md "Budgets").
func (p *Profiler) Contexts() int {
	return int(p.numContexts.Load())
}

// Snapshot finalizes a view of every context: live instances are folded
// into copies, so the snapshot reflects complete information (as if the
// program had ended, §3.3.2) without perturbing ongoing profiling. Shards
// are visited one at a time, so concurrent allocation keeps flowing through
// the other shards while each is copied.
func (p *Profiler) Snapshot() []*Profile {
	if done := p.timeFolds(); done != nil {
		defer done()
	}
	var out []*Profile
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, ci := range sh.contexts {
			cp := ci.clone()
			for _, in := range ci.live {
				cp.fold(in)
			}
			out = append(out, newProfile(cp, int64(len(ci.live))))
		}
		sh.mu.Unlock()
	}
	return out
}

// SnapshotContext finalizes a view of a single context by key, folding in
// its live instances, or returns nil when the context is unknown. The
// online selector uses this to decide one context without paying for a
// whole-profiler snapshot on the allocation path: only one shard is locked,
// and only the context's own live instances are folded.
func (p *Profiler) SnapshotContext(key uint64) *Profile {
	if done := p.timeFolds(); done != nil {
		defer done()
	}
	sh := p.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ci, ok := sh.contexts[key]
	if !ok {
		return nil
	}
	cp := ci.clone()
	for _, in := range ci.live {
		cp.fold(in)
	}
	return newProfile(cp, int64(len(ci.live)))
}

// OpenWindow starts (or restarts) a post-decision evidence window for one
// context: from now on, instances allocated at the context fold into a
// second aggregate alongside the lifetime one, so WindowSnapshot can report
// what happened strictly after the window opened. Instances allocated
// before the call never enter the window, even if they die inside it. A
// no-op for unknown contexts.
func (p *Profiler) OpenWindow(key uint64) {
	sh := p.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ci, ok := sh.contexts[key]
	if !ok {
		return
	}
	ci.winGen++
	ci.win = &ContextInfo{
		key:      key,
		ctx:      ci.ctx,
		owner:    p,
		declared: ci.declared,
		impl:     ci.impl,
		sizeHist: stats.NewHistogram(),
	}
}

// CloseWindow discards the context's evidence window, stopping the double
// fold. A no-op when no window is open.
func (p *Profiler) CloseWindow(key uint64) {
	sh := p.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ci, ok := sh.contexts[key]; ok {
		ci.win = nil
		ci.winGen++ // stale in-flight instances never match a future window
	}
}

// WindowSnapshot finalizes a view of the context's open evidence window,
// folding in the window-generation live instances, or returns nil when the
// context is unknown or no window is open. The profile carries trace
// statistics only (heap statistics are per-cycle, whole-context readings
// and stay zero); its Evidence field reports how many instances the window
// has observed, which the selector uses as the judgment threshold.
func (p *Profiler) WindowSnapshot(key uint64) *Profile {
	if done := p.timeFolds(); done != nil {
		defer done()
	}
	sh := p.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ci, ok := sh.contexts[key]
	if !ok || ci.win == nil {
		return nil
	}
	cp := ci.win.clone()
	var live int64
	for _, in := range ci.live {
		if in.winGen == ci.winGen {
			cp.fold(in)
			live++
		}
	}
	return newProfile(cp, live)
}
