// Package collections implements the Chameleon collections library: generic
// List / Set / Map wrapper types that delegate to interchangeable backing
// implementations (paper §4.1–4.2). Each allocation goes through one level
// of indirection — the wrapper — so the backing implementation can be chosen
// per allocation context (statically by the programmer, by default, or
// dynamically by the system) without changing client types.
//
// The wrappers perform the library half of semantic profiling: they record
// every operation and size change into a per-instance record
// (profiler.Instance, the paper's ObjectContextInfo) and keep the simulated
// heap informed of footprint changes so the collection-aware GC can compute
// live/used/core statistics per context.
package collections

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"chameleon/internal/alloctx"
	"chameleon/internal/governor"
	"chameleon/internal/heap"
	"chameleon/internal/profiler"
	"chameleon/internal/spec"
)

// Decision is a collection-implementation choice: the backing kind and the
// initial capacity (0 means the implementation default).
type Decision struct {
	Impl     spec.Kind
	Capacity int
}

// Selector chooses the backing implementation for a new collection. The
// online fully-automatic mode (paper §3.3.2) implements this interface;
// def is the declared kind and requested capacity the program asked for.
type Selector interface {
	Select(ctxKey uint64, declared spec.Kind, def Decision) Decision
}

// SelectorFunc adapts a function to the Selector interface.
type SelectorFunc func(ctxKey uint64, declared spec.Kind, def Decision) Decision

// Select implements Selector.
func (f SelectorFunc) Select(ctxKey uint64, declared spec.Kind, def Decision) Decision {
	return f(ctxKey, declared, def)
}

// Config configures a collections runtime.
type Config struct {
	// Heap, when non-nil, receives footprint accounting and runs the
	// collection-aware GC. Runtimes sharing a heap must share Contexts.
	Heap *heap.Heap
	// Profiler, when non-nil, receives trace statistics.
	Profiler *profiler.Profiler
	// Contexts interns allocation contexts; required unless Mode is Off.
	Contexts *alloctx.Table
	// Mode selects context capture: Off, Static (site labels), or Dynamic
	// (real stack walks).
	Mode alloctx.Mode
	// Depth is the partial-context depth for dynamic capture (default 2,
	// paper §3.2.1: "a call stack of depth two or three").
	Depth int
	// SampleRate captures the dynamic context of 1 in SampleRate
	// allocations (<=1 captures all).
	SampleRate int
	// Selector, when non-nil, chooses implementations at allocation time
	// (online mode).
	Selector Selector
	// Meter, when non-nil, receives the self-measured cost of epoch
	// flushes for the overhead governor (docs/ROBUSTNESS.md).
	Meter *governor.Meter
}

// Runtime carries the shared state every collection wrapper needs. A nil
// *Runtime is valid and means "no profiling, no heap simulation, default
// implementations" — plain library use.
//
// A Runtime is safe for concurrent use: allocations from many goroutines may
// share one Runtime. Its allocation policy (capture mode, sampling rate,
// selector) is fixed by NewRuntime; the profiling tier is the only policy
// that changes while goroutines allocate (SetProfilingTier).
type Runtime struct {
	heap     *heap.Heap
	prof     *profiler.Profiler
	contexts *alloctx.Table
	mode     alloctx.Mode
	depth    int
	sampler  *alloctx.Sampler
	selector Selector
	model    heap.SizeModel
	meter    *governor.Meter

	// Degradation-ladder state, written by the overhead governor through
	// SetProfilingTier and read (one atomic load) on every allocation.
	// govSampler elects the 1-in-rate allocations that still get an
	// instance record in the sampled tier.
	govTier    atomic.Int32
	govSampler *alloctx.Sampler

	// Selector containment record: the runtime is the last line of defense
	// between a misbehaving selector and the allocating goroutine, so it
	// recovers selector panics and rejects decisions that would crash the
	// constructors (docs/ROBUSTNESS.md).
	selPanics atomic.Int64
	selErr    atomic.Pointer[string]
}

// NewRuntime builds a runtime from cfg.
func NewRuntime(cfg Config) *Runtime {
	rt := &Runtime{
		heap:       cfg.Heap,
		prof:       cfg.Profiler,
		contexts:   cfg.Contexts,
		mode:       cfg.Mode,
		depth:      cfg.Depth,
		selector:   cfg.Selector,
		model:      heap.Model32,
		meter:      cfg.Meter,
		govSampler: alloctx.NewSampler(1),
	}
	if rt.depth <= 0 {
		rt.depth = 2
	}
	if cfg.SampleRate > 1 {
		rt.sampler = alloctx.NewSampler(cfg.SampleRate)
	}
	if rt.contexts == nil && rt.mode != alloctx.Off {
		rt.contexts = alloctx.NewTable()
	}
	if cfg.Heap != nil {
		rt.model = cfg.Heap.Model()
	}
	return rt
}

// Plain returns a runtime with everything off: collections behave as an
// ordinary library.
func Plain() *Runtime { return NewRuntime(Config{}) }

// SetProfilingTier moves the runtime to a rung of the degradation ladder
// (normally called by the overhead governor; see governor.Tier for the
// per-tier semantics). rate is the instance-sampling rate for
// TierSampled; it is ignored (forced to 1) by the other tiers. Safe to
// call while other goroutines allocate: each allocation sees one coherent
// tier. Profiling is passive, so tier changes never alter what the
// program computes — only how much of it is observed.
func (rt *Runtime) SetProfilingTier(t governor.Tier, rate int) {
	if rt == nil {
		return
	}
	if t != governor.TierSampled || rate < 1 {
		rate = 1
	}
	rt.govSampler.SetRate(rate)
	rt.govTier.Store(int32(t))
}

// ProfilingTier reports the runtime's current degradation-ladder rung.
func (rt *Runtime) ProfilingTier() governor.Tier {
	if rt == nil {
		return governor.TierOff
	}
	return governor.Tier(rt.govTier.Load())
}

// Model reports the size model footprints are computed against.
func (rt *Runtime) Model() heap.SizeModel {
	if rt == nil {
		return heap.Model32
	}
	return rt.model
}

// Heap reports the runtime's heap (may be nil).
func (rt *Runtime) Heap() *heap.Heap {
	if rt == nil {
		return nil
	}
	return rt.heap
}

// Profiler reports the runtime's profiler (may be nil).
func (rt *Runtime) Profiler() *profiler.Profiler {
	if rt == nil {
		return nil
	}
	return rt.prof
}

// Contexts reports the runtime's context table (may be nil when Mode is Off).
func (rt *Runtime) Contexts() *alloctx.Table {
	if rt == nil {
		return nil
	}
	return rt.contexts
}

// allocOpts carries per-allocation options.
type allocOpts struct {
	capacity       int
	site           string
	forceImpl      spec.Kind
	adaptThreshold int
}

// Option configures one collection allocation.
type Option func(*allocOpts)

// applyOpts collects one allocation's options; every constructor, profiled
// or fixed, parses its options here.
func applyOpts(opts []Option) allocOpts {
	var o allocOpts
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Cap requests an initial capacity.
func Cap(n int) Option { return func(o *allocOpts) { o.capacity = n } }

// At labels the allocation with a static context (the cheap "VM support"
// capture mode). The label conventionally looks like the paper's contexts:
// "pkg.Type.method:line;caller:line".
func At(label string) Option { return func(o *allocOpts) { o.site = label } }

// Impl forces a specific backing implementation, overriding any selector —
// the paper's "determined statically by the programmer" choice. This is how
// Chameleon's suggestions are applied to a program.
func Impl(k spec.Kind) Option { return func(o *allocOpts) { o.forceImpl = k } }

// resolveContext obtains the allocation context for one allocation
// according to the runtime's capture mode and sampling rate. It must be
// called directly by the public constructor so that dynamic capture skips
// exactly the two library frames (resolveContext and the constructor).
func (rt *Runtime) resolveContext(o *allocOpts) *alloctx.Context {
	if rt == nil {
		return nil
	}
	if governor.Tier(rt.govTier.Load()) == governor.TierOff {
		// Bottom of the ladder: nothing downstream consumes the context
		// (no instance, no heap ticket), so skip capture — in dynamic
		// mode that is the stack walk.
		return nil
	}
	switch rt.mode {
	case alloctx.Static:
		if o.site == "" {
			return nil
		}
		return rt.contexts.Static(o.site)
	case alloctx.Dynamic:
		if !rt.sampler.Sample() {
			return nil
		}
		return rt.contexts.CaptureDynamic(2, rt.depth)
	default:
		return nil
	}
}

// decide picks the backing implementation and capacity. A selector is
// untrusted here: its panics are recovered (an allocation must never crash
// because the advice machinery broke) and its decision is sanitized before
// it reaches a constructor.
func (rt *Runtime) decide(ctx *alloctx.Context, declared spec.Kind, o *allocOpts) Decision {
	def := Decision{Impl: declared, Capacity: o.capacity}
	if o.forceImpl != spec.KindNone {
		return Decision{Impl: o.forceImpl, Capacity: o.capacity}
	}
	if rt == nil || rt.selector == nil {
		return def
	}
	dec, ok := rt.selectGuarded(ctx.Key(), declared, def)
	if !ok {
		return def
	}
	return sanitizeDecision(dec, declared, def)
}

// selectGuarded invokes the selector under recover: a panicking selector
// yields the default decision and is recorded in SelectorHealth.
func (rt *Runtime) selectGuarded(ctxKey uint64, declared spec.Kind, def Decision) (dec Decision, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("selector panic: %v", r)
			rt.selPanics.Add(1)
			rt.selErr.Store(&msg)
			dec, ok = def, false
		}
	}()
	return rt.selector.Select(ctxKey, declared, def), true
}

// sanitizeDecision rejects decisions the constructors cannot honor: a
// cross-ADT implementation (newListImpl and friends panic on foreign
// kinds) falls back to the default wholesale, a zero kind means "keep the
// declared one", and a negative capacity is clamped to the implementation
// default.
func sanitizeDecision(dec Decision, declared spec.Kind, def Decision) Decision {
	if dec.Impl == spec.KindNone {
		dec.Impl = def.Impl
	}
	if dec.Impl.Abstract() != declared.Abstract() {
		return def
	}
	if dec.Capacity < 0 {
		dec.Capacity = 0
	}
	return dec
}

// SelectorHealth is the runtime's containment record for the installed
// selector: how many panics were recovered on the allocation path and the
// most recent one.
type SelectorHealth struct {
	Panics    int64
	LastError string
}

// SelectorHealth reports the selector containment record.
func (rt *Runtime) SelectorHealth() SelectorHealth {
	if rt == nil {
		return SelectorHealth{}
	}
	h := SelectorHealth{Panics: rt.selPanics.Load()}
	if msg := rt.selErr.Load(); msg != nil {
		h.LastError = *msg
	}
	return h
}

// flushEvery is the epoch length K of the batched profiling path: pending
// owner-local counters drain into the shared atomic structures every
// flushEvery recorded operations (and at size-class crossings and on free).
// Snapshots of a live instance may therefore lag the owner by at most
// flushEvery-1 operations; see docs/CONCURRENCY.md "Epoch-batched
// profiling".
const flushEvery = 32

// sizeClassOf buckets a collection size geometrically, with class
// boundaries at every power of two. Crossing a boundary in either
// direction forces a footprint push into the heap ticket, so a cached
// reading is never more than one size class (or flushEvery operations)
// stale.
func sizeClassOf(n int32) int8 {
	if n < 0 {
		n = 0
	}
	return int8(bits.Len32(uint32(n)))
}

// base is the state shared by all collection wrappers. A wrapper (and hence
// its base) is owned by one goroutine at a time; the shared structures it
// reports into (heap, profiler, runtime policy) are the concurrent-safe parts.
type base struct {
	rt     *Runtime
	coll   heap.Collection
	inst   *profiler.Instance
	ticket *heap.Ticket
	ctxKey uint64

	// tk is the ticket storage ticket points at when the runtime has a
	// heap: embedding it in the wrapper header saves one heap object per
	// collection. It must never be copied (it contains atomics).
	//
	// tk.Ep is the wrapper's epoch-batched profiling state (ops recorded
	// since the last flush, last pushed size class, dirty flag). It is
	// owner-local and deliberately non-atomic: only the owning goroutine
	// touches it, and flush() drains the epoch into the shared atomic
	// structures (inst, ticket) every flushEvery operations, at size-class
	// crossings, and on free. The per-op pending counts themselves live
	// inside the profiler Instance (heap-allocated and pooled), and the
	// epoch scalars occupy Ticket padding, so a profiled wrapper's header
	// is exactly as large as a plain one's — growing it measurably slows
	// plain scan-heavy paths. tk.Ep is meaningful (and used) even when the
	// runtime has no heap and tk is never registered.
	tk heap.Ticket
}

// install wires a freshly constructed wrapper (which must implement
// heap.Collection) into the profiler and heap.
func (rt *Runtime) install(b *base, c heap.Collection, ctx *alloctx.Context, declared spec.Kind, dec Decision) {
	b.rt = rt
	b.coll = c
	b.ctxKey = ctx.Key()
	if rt == nil {
		return
	}
	tier := governor.Tier(rt.govTier.Load())
	if rt.prof != nil && tier <= governor.TierSampled {
		// TierSampled: only the govSampler-elected 1-in-rate allocations
		// still pay for an instance record (alloctx.Sampler rate decay).
		if tier == governor.TierFull || rt.govSampler.Sample() {
			b.inst = rt.prof.OnAlloc(ctx, declared, dec.Impl, dec.Capacity)
		}
	}
	if rt.heap != nil && tier <= governor.TierHeapOnly {
		rt.heap.RegisterInto(c, &b.tk, ctx)
		b.ticket = &b.tk
	}
}

// free releases the wrapper: pending counters are flushed (so the folded
// record and the ticket's last reading are exact), the heap ticket is
// freed, and the instance record is folded into its context (the finalizer
// analogue, §4.4). The instance must not be used after free returns — the
// profiler recycles the record.
func (b *base) free() {
	b.flush()
	if b.ticket != nil {
		b.ticket.Free()
		b.ticket = nil
	}
	if b.inst != nil {
		b.rt.prof.OnDeath(b.inst)
		b.inst = nil
	}
}

// recordRead counts a non-mutating operation in the owner-local pending
// buffer; the atomic instance record only sees it at the next flush. The
// nil check is kept in this thin wrapper so the unprofiled path inlines to
// a single compare at every call site.
func (b *base) recordRead(op spec.Op) {
	if b.inst == nil {
		return
	}
	b.bufferRead(op)
}

func (b *base) bufferRead(op spec.Op) {
	b.inst.Buffer(op)
	b.tk.Ep.OpsPend++
	if b.tk.Ep.OpsPend >= flushEvery {
		b.flush()
	}
}

// afterMutate counts a mutating operation and notes the new size, both in
// owner-local pending counters. The collection's footprint is recomputed
// and pushed into its heap ticket only when the size crosses a power-of-two
// size class or when the epoch flushes — not on every mutation — so the
// heap's running sums hold a bounded-staleness reading of the collection
// rather than an exact one (see docs/CONCURRENCY.md). The push happens
// entirely on the owning goroutine, so concurrent cycles stay race-free.
func (b *base) afterMutate(op spec.Op, size int) {
	// Thin wrapper so the unprofiled path inlines to two compares.
	if b.inst == nil && b.ticket == nil {
		return
	}
	b.bufferMutate(op, size)
}

func (b *base) bufferMutate(op spec.Op, size int) {
	ep := &b.tk.Ep
	ep.CurSize = int32(size)
	if in := b.inst; in != nil {
		in.Buffer(op)
		in.BufferSize(ep.CurSize)
	}
	ep.Dirty = b.ticket != nil
	ep.OpsPend++
	if ep.OpsPend >= flushEvery {
		b.flush()
		return
	}
	if ep.Dirty && sizeClassOf(ep.CurSize) != ep.SizeClass {
		b.syncTicket()
	}
}

// noteIterator counts an iterator creation, its churn, and whether the
// collection was empty (the Table 2 redundant-iterator rule).
func (b *base) noteIterator(size int) { b.noteIter(spec.Iterate, size, 1) }

// noteListIterator is noteIterator for the bidirectional list iterator,
// profiled separately so the SinglyLinkedList rule can prove it unused.
func (b *base) noteListIterator(size int) { b.noteIter(spec.ListIterate, size, 2) }

// noteIter buffers an iterator operation and charges the heap for an
// iterator object of two references and ints int fields.
func (b *base) noteIter(op spec.Op, size int, ints int64) {
	if in := b.inst; in != nil {
		in.Buffer(op)
		if size == 0 {
			in.BufferEmptyIterator()
		}
		b.tk.Ep.OpsPend++
		if b.tk.Ep.OpsPend >= flushEvery {
			b.flush()
		}
	}
	if b.rt != nil && b.rt.heap != nil {
		b.rt.heap.Allocated(b.rt.model.ObjectFields(2, ints))
	}
}

// flush drains every owner-local pending counter into the shared atomic
// structures: per-op counts, size observations, and empty-iterator counts
// into the profiler instance; the current footprint into the heap ticket.
// Flush points are a pure function of the owner's operation stream
// (every flushEvery ops, every size-class crossing, every free), so runs
// with identical per-owner streams publish identical readings regardless
// of goroutine interleaving — the determinism the concurrent tests assert.
func (b *base) flush() {
	// Self-measurement for the overhead governor: 1-in-N flushes are
	// timed (scaled back up by the meter), the rest pay one atomic add.
	// Ungoverned runtimes (meter nil) pay a pointer compare.
	if rt := b.rt; rt != nil && rt.meter != nil && rt.meter.SampleFlush() {
		start := time.Now()
		b.flushNow()
		rt.meter.RecordFlush(time.Since(start))
		return
	}
	b.flushNow()
}

func (b *base) flushNow() {
	if in := b.inst; in != nil {
		in.FlushPending(int64(b.tk.Ep.CurSize))
	}
	b.tk.Ep.OpsPend = 0
	if b.tk.Ep.Dirty {
		b.syncTicket()
	}
}

// syncTicket recomputes the collection's footprint and pushes it into the
// heap ticket, recording the size class the reading was taken at.
func (b *base) syncTicket() {
	if b.ticket == nil {
		return
	}
	b.tk.Ep.SizeClass = sizeClassOf(b.tk.Ep.CurSize)
	b.tk.Ep.Dirty = false
	b.ticket.Sync(b.coll.HeapFootprint(), b.coll.KindName())
}
