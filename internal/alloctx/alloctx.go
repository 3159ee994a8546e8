// Package alloctx implements Chameleon's allocation contexts (§3.2.1): a
// partial allocation context is the allocation site plus a call stack of
// small bounded depth (2-3 in the paper), which the profiler uses as the
// aggregation key for all collection statistics.
//
// The paper implements context capture three ways — walking a Throwable's
// stack frames (slow), JVMTI (faster), and a planned lightweight VM
// modification. We mirror that cost spectrum with two modes: Dynamic
// capture walks the real Go call stack with runtime.Callers (the
// Throwable/JVMTI analogue, measurably expensive), while Static contexts
// are pre-interned labels handed out by the allocation site itself (the
// "VM support" analogue, nearly free). Sampling (§4.2 "Sampling of
// Allocation Context") further mitigates dynamic-capture cost.
package alloctx

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Frame is one resolved stack frame of a context.
type Frame struct {
	Function string
	File     string
	Line     int
}

// Context is an interned partial allocation context. Contexts are
// canonical: two captures of the same call stack (or the same static
// label) return the same *Context, so the uint64 key can be used as a map
// key everywhere in the profiler and heap.
type Context struct {
	key    uint64
	slot   int32
	pcs    []uintptr // raw program counters (dynamic captures only)
	frames []Frame
	label  string

	// scratch is an opaque cache slot for the context's consumers: the
	// profiler stores its per-context aggregate here so the allocation hot
	// path skips the context-table lookup once a context is hot. Every
	// store must use the same concrete type (atomic.Value's contract).
	scratch atomic.Value
}

// Key reports the context's interned key. Key 0 is reserved for "no
// context" (tracking disabled).
func (c *Context) Key() uint64 {
	if c == nil {
		return 0
	}
	return c.key
}

// Slot reports the context's dense index in its table, for per-context
// state that should not hash the key (the heap's running sums): slots
// count up from 1 and are never reused (a lost interning race leaves a
// gap), and 0 means "no context".
func (c *Context) Slot() int32 {
	if c == nil {
		return 0
	}
	return c.slot
}

// Frames reports the resolved frames, outermost last.
func (c *Context) Frames() []Frame {
	if c == nil {
		return nil
	}
	return c.frames
}

// Scratch returns the value stored by SetScratch, or nil.
func (c *Context) Scratch() any {
	if c == nil {
		return nil
	}
	return c.scratch.Load()
}

// SetScratch publishes a value into the context's cache slot. All callers
// must store the same concrete type.
func (c *Context) SetScratch(v any) {
	if c != nil {
		c.scratch.Store(v)
	}
}

// String renders the context in the paper's report syntax:
// "func:line;func:line" (e.g. "tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50").
func (c *Context) String() string {
	if c == nil {
		return "<none>"
	}
	if c.label != "" {
		return c.label
	}
	parts := make([]string, len(c.frames))
	for i, f := range c.frames {
		// Frame functions are already trimmed at capture; SiteLabel's trim
		// is idempotent, so this is the same rendering the static analyzer
		// derives from source (label.go).
		parts[i] = SiteLabel(f.Function, f.Line)
	}
	return JoinFrames(parts...)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashPCs(pcs []uintptr) uint64 {
	h := uint64(fnvOffset)
	for _, pc := range pcs {
		v := uint64(pc)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Table interns contexts. It is safe for concurrent use; the table is
// read-mostly (every context after its first capture is a pure lookup), so
// it is backed by a sync.Map and repeat captures take no lock at all.
type Table struct {
	byKey sync.Map // uint64 -> *Context

	// statics memoizes Static lookups by label: the hot path — every
	// allocation in static mode — is an atomic load and a short lock-free
	// probe, with no allocation. staticMu serializes insertions.
	statics  atomic.Pointer[staticTable]
	staticMu sync.Mutex

	// count tracks interned contexts (and admission reservations, see
	// reserve) so Len() is one atomic load; slots hands out Context.Slot
	// numbers; collisions counts the (astronomically rare) times two
	// distinct contexts hashed to one key and one was stored at a probed
	// key.
	count      atomic.Int64
	slots      atomic.Int32
	collisions atomic.Int64

	// maxContexts, when > 0, caps how many distinct contexts the table will
	// intern; captures beyond the cap resolve to the shared overflow
	// context instead of growing the table (docs/ROBUSTNESS.md "Budgets").
	// denied counts such redirected admissions.
	maxContexts atomic.Int64
	denied      atomic.Int64
	overflow    atomic.Pointer[Context]
}

// OverflowLabel is the label of the shared aggregate context that absorbs
// captures denied by the context budget.
const OverflowLabel = "(overflow)"

// NewTable returns an empty context table.
func NewTable() *Table {
	return &Table{}
}

// Static interns a pre-resolved context by label. This is the cheap "VM
// support" capture mode: the allocation site knows its own identity and no
// stack walk happens.
func (t *Table) Static(label string) *Context {
	if s := t.statics.Load(); s != nil {
		if c := s.slots[s.probe(label)].Load(); c != nil && c.label == label {
			return c
		}
	}
	return t.staticSlow(label)
}

// staticTable is an open-addressed, linearly probed table from static label
// to context. Inserts swap in a table twice the size once it is half full,
// so interning N labels costs O(N); entries are never removed, so a reader
// racing an insert or a resize at worst misses and takes the slow path.
type staticTable struct {
	seed  maphash.Seed
	n     int // entries; guarded by Table.staticMu
	slots []atomic.Pointer[Context]
}

// probe returns the index holding label, or else the first free index on
// label's probe sequence (a racing insert may fill it before the caller
// loads it, so readers recheck the label).
func (s *staticTable) probe(label string) uint64 {
	mask := uint64(len(s.slots) - 1)
	i := maphash.String(s.seed, label) & mask
	for c := s.slots[i].Load(); c != nil && c.label != label; c = s.slots[i].Load() {
		i = (i + 1) & mask
	}
	return i
}

// intern finds or installs a context at key, linearly probing past hash
// collisions: when a key's occupant is a *different* context (different
// stack or label — a 64-bit FNV collision), the key is bumped until the
// matching context or a free slot is found, instead of silently merging
// the two contexts' profiles. same reports whether an occupant is the
// context being interned; mk builds the context for the key it ends up at.
//
// admit=false subjects the creation of a *new* context to the context
// budget: when the table is full the capture is redirected to the shared
// overflow context. Existing contexts always resolve, budget or not.
// Admission is exact: a new context reserves its place (reserve) before it
// is stored and hands the reservation back if another goroutine stored the
// key first, so concurrent first captures never overshoot the budget.
func (t *Table) intern(key uint64, admit bool, same func(*Context) bool, mk func(uint64) *Context) *Context {
	probed := false
	for {
		if c, ok := t.byKey.Load(key); ok {
			ctx := c.(*Context)
			if same(ctx) {
				return ctx
			}
		} else {
			if !t.reserve(admit) {
				t.denied.Add(1)
				return t.Overflow()
			}
			fresh := mk(key)
			fresh.slot = t.slots.Add(1)
			c, loaded := t.byKey.LoadOrStore(key, fresh)
			ctx := c.(*Context)
			if !loaded {
				if probed {
					t.collisions.Add(1)
				}
				return ctx
			}
			// Lost the store race: release the reservation (the slot stays
			// unused). The winner may still be us semantically.
			t.count.Add(-1)
			if same(ctx) {
				return ctx
			}
		}
		probed = true
		key++
		if key == 0 {
			key = 1
		}
	}
}

// reserve claims room for one new context, failing when admit is false and
// the context budget (if any) is exhausted. The claim is a compare-and-swap
// on count, so racing first captures cannot all pass one check.
func (t *Table) reserve(admit bool) bool {
	for {
		n := t.count.Load()
		if max := t.maxContexts.Load(); !admit && max > 0 && n >= max {
			return false
		}
		if t.count.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// SetMaxContexts installs the context budget: at most n distinct contexts
// are interned (the shared overflow context rides on top, so Len() is
// bounded by n+1); further captures resolve to Overflow(). n <= 0 removes
// the budget. Raising or removing a budget mid-run re-admits new contexts
// but never un-redirects traffic already attributed to overflow.
func (t *Table) SetMaxContexts(n int) {
	t.maxContexts.Store(int64(n))
}

// MaxContexts reports the current context budget (0 = unbounded).
func (t *Table) MaxContexts() int { return int(t.maxContexts.Load()) }

// OverflowAdmissions reports how many captures were redirected to the
// overflow context because the budget was exhausted.
func (t *Table) OverflowAdmissions() int64 { return t.denied.Load() }

// Overflow returns the table's shared overflow context, interning it on
// first use (exempt from the budget). All denied captures alias to this
// one context, so downstream per-context maps stay bounded too.
func (t *Table) Overflow() *Context {
	if c := t.overflow.Load(); c != nil {
		return c
	}
	c := t.intern(StaticKey(OverflowLabel), true,
		func(c *Context) bool { return c.label == OverflowLabel },
		func(key uint64) *Context { return &Context{key: key, label: OverflowLabel} })
	t.overflow.CompareAndSwap(nil, c)
	return t.overflow.Load()
}

func (t *Table) staticSlow(label string) *Context {
	ctx := t.intern(StaticKey(label), false,
		func(c *Context) bool { return c.label == label },
		func(key uint64) *Context { return &Context{key: key, label: label} })
	if ctx.label != label {
		// Budget denial: do not memoize label→overflow, so the label is
		// re-admitted naturally if the budget is raised later.
		return ctx
	}
	t.staticMu.Lock()
	defer t.staticMu.Unlock()
	s := t.statics.Load()
	if s == nil {
		s = &staticTable{seed: maphash.MakeSeed(), slots: make([]atomic.Pointer[Context], 16)}
	}
	if 2*(s.n+1) > len(s.slots) {
		grown := &staticTable{seed: s.seed, n: s.n, slots: make([]atomic.Pointer[Context], 2*len(s.slots))}
		for i := range s.slots {
			if c := s.slots[i].Load(); c != nil {
				grown.slots[grown.probe(c.label)].Store(c)
			}
		}
		s = grown
	}
	if i := s.probe(label); s.slots[i].Load() == nil {
		s.slots[i].Store(ctx)
		s.n++
	}
	t.statics.Store(s)
	return ctx
}

// CaptureDynamic walks the caller's stack, skipping skip frames above the
// caller of CaptureDynamic itself, and interns a context of at most depth
// frames. Frame symbolization only happens the first time a given stack is
// seen; repeat captures pay only for runtime.Callers plus a map lookup,
// like the paper's native implementation that "works directly with unique
// identifiers, without constructing intermediate objects".
func (t *Table) CaptureDynamic(skip, depth int) *Context {
	if depth <= 0 {
		depth = 2
	}
	var pcbuf [16]uintptr
	if depth > len(pcbuf) {
		depth = len(pcbuf)
	}
	// +2 skips runtime.Callers and CaptureDynamic itself.
	n := runtime.Callers(skip+2, pcbuf[:depth])
	pcs := pcbuf[:n]
	key := hashPCs(pcs)
	if c, ok := t.byKey.Load(key); ok {
		// The occupant is almost always this very stack; the PC compare
		// guards against a 64-bit collision silently merging two contexts.
		if ctx := c.(*Context); ctx.samePCs(pcs) {
			return ctx
		}
	}

	// From here on only the copy is used: pcbuf reaching CallersFrames or
	// the closures would move it to the heap on every capture, hits too.
	owned := append([]uintptr(nil), pcs...)
	// Symbolize before interning; duplicate work on a race is harmless
	// because LoadOrStore is first-writer-wins.
	frames := make([]Frame, 0, n)
	it := runtime.CallersFrames(owned)
	for {
		fr, more := it.Next()
		frames = append(frames, Frame{Function: trimFunc(fr.Function), File: fr.File, Line: fr.Line})
		if !more {
			break
		}
	}
	return t.intern(key, false,
		func(c *Context) bool { return c.samePCs(owned) },
		func(key uint64) *Context { return &Context{key: key, pcs: owned, frames: frames} })
}

// samePCs reports whether the context was interned from exactly this PC
// sequence (always false for static/label contexts).
func (c *Context) samePCs(pcs []uintptr) bool {
	if c.label != "" || len(c.pcs) != len(pcs) {
		return false
	}
	for i, pc := range pcs {
		if c.pcs[i] != pc {
			return false
		}
	}
	return true
}

// Lookup reports the interned context for key, or nil.
func (t *Table) Lookup(key uint64) *Context {
	if c, ok := t.byKey.Load(key); ok {
		return c.(*Context)
	}
	return nil
}

// Len reports the number of interned contexts (one atomic load). With a
// context budget installed this is bounded by MaxContexts()+1: budget
// denials alias to the overflow context instead of interning, and the
// overflow context itself rides on top of the budget.
func (t *Table) Len() int {
	return int(t.count.Load())
}

// Collisions reports how many times interning had to disambiguate two
// distinct contexts whose stacks or labels hashed to the same 64-bit key
// (each such context was stored at a linearly-probed key instead of being
// silently merged with the occupant's profile).
func (t *Table) Collisions() int {
	return int(t.collisions.Load())
}

// trimFunc shortens "chameleon/internal/workloads.(*TVLA).step" to
// "workloads.(*TVLA).step" for readable reports.
func trimFunc(fn string) string {
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		return fn[i+1:]
	}
	return fn
}

// Mode selects how allocation contexts are obtained.
type Mode int

const (
	// Off disables context tracking: every allocation maps to context 0.
	Off Mode = iota
	// Static uses pre-interned site labels (cheap; the "VM support" mode).
	Static
	// Dynamic walks the real call stack on each sampled allocation (the
	// Throwable/JVMTI mode; expensive, drives the §5.4 overhead result).
	Dynamic
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Sampler decides, deterministically, whether a given allocation should
// capture its context. A rate of n captures 1 in n allocations; rates <= 1
// capture everything. The zero value captures everything.
//
// The counter is atomic, so one Sampler may be shared by concurrently
// allocating goroutines: in aggregate exactly 1 in n allocations samples
// (every n-th increment fires), though which goroutine's allocation fires
// depends on interleaving. Single-threaded behaviour is unchanged — the
// first capture happens on the rate-th call.
type Sampler struct {
	rate  atomic.Int64
	count atomic.Int64
}

// NewSampler returns a sampler with the given 1-in-rate policy.
func NewSampler(rate int) *Sampler {
	s := &Sampler{}
	s.rate.Store(int64(rate))
	return s
}

// SetRate changes the 1-in-rate policy. The rate is read atomically on
// every Sample, so the overhead governor can decay it while allocating
// goroutines run (the sampled tier's "rate decay").
func (s *Sampler) SetRate(rate int) {
	if s != nil {
		s.rate.Store(int64(rate))
	}
}

// Rate reports the current 1-in-rate policy.
func (s *Sampler) Rate() int {
	if s == nil {
		return 1
	}
	return int(s.rate.Load())
}

// Sample reports whether this allocation should capture context.
func (s *Sampler) Sample() bool {
	if s == nil {
		return true
	}
	rate := s.rate.Load()
	if rate <= 1 {
		return true
	}
	return s.count.Add(1)%rate == 0
}
