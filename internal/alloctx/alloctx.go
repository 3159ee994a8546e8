// Package alloctx implements Chameleon's allocation contexts (§3.2.1): a
// partial allocation context is the allocation site plus a call stack of
// small bounded depth (2-3 in the paper), which the profiler uses as the
// aggregation key for all collection statistics.
//
// The paper implements context capture three ways — walking a Throwable's
// stack frames (slow), JVMTI (faster), and a planned lightweight VM
// modification. We mirror that cost spectrum. Static contexts are
// pre-interned labels handed out by the allocation site itself (nearly
// free). Dynamic capture resolves the real Go call stack with
// runtime.Callers (the Throwable/JVMTI analogue, measurably expensive) the
// first time a stack is seen; on amd64 a repeat capture only follows the
// saved frame pointers and looks the return addresses up in the table, the
// "VM support" analogue for dynamic contexts. Sampling (§4.2 "Sampling of
// Allocation Context") further mitigates dynamic-capture cost.
package alloctx

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"slices"
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

// fnvString continues the FNV-1a hash h over the bytes of s, so a key
// over several strings needs no concatenation.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Table interns contexts. It is safe for concurrent use; the table is
// read-mostly (every context after its first capture is a pure lookup), so
// it is backed by a sync.Map and repeat captures take no lock at all.
type Table struct {
	byKey sync.Map // uint64 -> *Context

	// statics memoizes Static lookups by label and stacks memoizes
	// CaptureDynamic by physical stack: the hot path — every allocation in
	// static mode, every repeat dynamic capture — is an atomic load and a
	// short lock-free probe, with no allocation. memoMu serializes
	// insertions into both.
	statics atomic.Pointer[memo[Context]]
	stacks  atomic.Pointer[memo[stackEntry]]
	memoMu  sync.Mutex

	// callersOnly makes CaptureDynamic resolve every capture with
	// runtime.Callers, as it does where frame pointers are not walked, so
	// tests can hold the two paths against each other on amd64.
	callersOnly bool

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
	if c := t.statics.Load().lookup(hashLabel(label), func(c *Context) bool { return c.label == label }); c != nil {
		return c
	}
	return t.staticSlow(label)
}

// labelSeed keys the statics memo's label hash.
var labelSeed = maphash.MakeSeed()

func hashLabel(label string) uint64 { return maphash.String(labelSeed, label) }

// memo is an open-addressed, linearly probed table of entries: label to
// context for Static, physical stack to context for CaptureDynamic. Inserts
// (memoize) swap in a table twice the size once it is half full, so N
// inserts cost O(N); entries are never removed, so a reader racing an
// insert or a resize at worst misses and takes the slow path.
type memo[E any] struct {
	n     int // entries; guarded by Table.memoMu
	slots []atomic.Pointer[E]
}

// probe returns the index holding the entry match accepts, or else the
// first free index on the probe sequence of hash h.
func (m *memo[E]) probe(h uint64, match func(*E) bool) uint64 {
	mask := uint64(len(m.slots) - 1)
	i := h & mask
	for e := m.slots[i].Load(); e != nil && !match(e); e = m.slots[i].Load() {
		i = (i + 1) & mask
	}
	return i
}

// lookup returns the entry match accepts, or nil; m may be nil. A racing
// insert may fill the free index probe stopped at, so the entry is
// rechecked.
func (m *memo[E]) lookup(h uint64, match func(*E) bool) *E {
	if m == nil {
		return nil
	}
	if e := m.slots[m.probe(h, match)].Load(); e != nil && match(e) {
		return e
	}
	return nil
}

// memoize inserts e (hash h) into the memo p points to, unless an entry
// match accepts is already there, and publishes the result; hash rehashes
// entries when the memo grows. The caller holds Table.memoMu.
func memoize[E any](p *atomic.Pointer[memo[E]], e *E, h uint64, match func(*E) bool, hash func(*E) uint64) {
	m := p.Load()
	if m == nil {
		m = &memo[E]{slots: make([]atomic.Pointer[E], 16)}
	}
	if 2*(m.n+1) > len(m.slots) {
		grown := &memo[E]{n: m.n, slots: make([]atomic.Pointer[E], 2*len(m.slots))}
		for i := range m.slots {
			if old := m.slots[i].Load(); old != nil {
				grown.slots[grown.probe(hash(old), func(*E) bool { return false })].Store(old)
			}
		}
		m = grown
	}
	if i := m.probe(h, match); m.slots[i].Load() == nil {
		m.slots[i].Store(e)
		m.n++
	}
	p.Store(m)
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
	t.memoMu.Lock()
	memoize(&t.statics, ctx, hashLabel(label),
		func(c *Context) bool { return c.label == label },
		func(c *Context) uint64 { return hashLabel(c.label) })
	t.memoMu.Unlock()
	return ctx
}

const (
	// maxDepth caps a dynamic context's frames.
	maxDepth = 16
	// maxWalk bounds the frames the frame-pointer path walks; a capture
	// with skip+depth beyond it resolves with runtime.Callers every time.
	maxWalk = 32
)

// stackEntry memoizes one dynamic capture: the physical return addresses
// walked from CaptureDynamic's caller outwards, the skip and depth of the
// capture, and the context runtime.Callers resolved for them — nil when
// the walk could not determine it, so the capture takes runtime.Callers.
type stackEntry struct {
	skip, depth int
	pcs         []uintptr
	ctx         *Context
}

func (e *stackEntry) is(pcs []uintptr, skip, depth int) bool {
	return e.skip == skip && e.depth == depth && slices.Equal(e.pcs, pcs)
}

// hashStack hashes a stack entry's key; hashing pcs one at a time through
// hashPC from hashStack(nil, skip, depth) gives the same value.
func hashStack(pcs []uintptr, skip, depth int) uint64 {
	h := uint64(skip)<<32 | uint64(depth)
	for _, pc := range pcs {
		h = hashPC(h, pc)
	}
	return h
}

func hashPC(h uint64, pc uintptr) uint64 {
	h = (h ^ uint64(pc)) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// CaptureDynamic interns the context of the caller's stack: at most depth
// frames, starting skip frames above the caller of CaptureDynamic itself.
// The first capture of a stack resolves it with runtime.Callers and
// symbolizes its frames. On amd64 a repeat capture only walks the saved
// frame pointers and looks the return addresses up in the table's stack
// memo: the paper's "VM support" for dynamic contexts, a native stack walk
// that "works directly with unique identifiers, without constructing
// intermediate objects". Both paths return the same context for a stack.
// CaptureDynamic is never inlined: the walk starts at its frame.
//
//go:noinline
func (t *Table) CaptureDynamic(skip, depth int) *Context {
	if depth <= 0 {
		depth = 2
	}
	depth = min(depth, maxDepth)
	n := skip + depth
	if !framePointers || t.callersOnly || skip < 0 || n > maxWalk {
		return t.capture(skip, depth, nil, false)
	}
	// Walk up to twice the frames the capture needs without inlining:
	// wrapper frames, which runtime.Callers elides, push its last frame
	// further out. One frame more tells whether the walk reached the
	// goroutine's outermost frame.
	walk := min(2*n, maxWalk)
	var buf [maxWalk + 1]uintptr
	walked := callerPCs(buf[:walk+1])
	if walked < 0 {
		return t.capture(skip, depth, nil, false)
	}
	complete := walked <= walk
	walked = min(walked, walk)
	// An entry is keyed on at least n frames, or on all of a complete
	// stack, and on more when the wrappers ask for them.
	m := t.stacks.Load()
	h := hashStack(nil, skip, depth)
	for k, pc := range buf[:walked] {
		h = hashPC(h, pc)
		if k+1 < min(n, walked) {
			continue
		}
		phys := buf[:k+1]
		if e := m.lookup(h, func(e *stackEntry) bool { return e.is(phys, skip, depth) }); e != nil {
			if e.ctx == nil {
				return t.capture(skip, depth, nil, false)
			}
			return e.ctx
		}
	}
	return t.capture(skip, depth, buf[:walked], complete)
}

// capture resolves the logical frames skip to skip+depth above
// CaptureDynamic's caller with runtime.Callers and interns their context.
// phys, when not nil, holds the physical return addresses walked from
// CaptureDynamic's frame (all of them when complete); capture memoizes the
// fewest of them that determine this capture, or all of them as
// undetermined.
func (t *Table) capture(skip, depth int, phys []uintptr, complete bool) *Context {
	var buf [maxWalk]uintptr
	var lo, n int
	if phys == nil {
		// +3 skips runtime.Callers, capture and CaptureDynamic.
		n = runtime.Callers(skip+3, buf[:depth])
	} else {
		// The skipped frames too, so cover can align all of them.
		n = runtime.Callers(3, buf[:skip+depth])
		lo = min(skip, n)
	}
	ctx := t.internPCs(buf[lo:n])
	if phys == nil || ctx.label != "" {
		// No walk, or a budget denial: never memoize a stack as the
		// overflow context, so it is re-admitted if the budget is raised.
		return ctx
	}
	e := &stackEntry{skip: skip, depth: depth, ctx: ctx}
	k := cover(phys, buf[:n], n == skip+depth, complete)
	if k == 0 {
		e.ctx, k = nil, len(phys)
	}
	e.pcs = append([]uintptr(nil), phys[:max(k, min(skip+depth, len(phys)))]...)
	t.memoMu.Lock()
	memoize(&t.stacks, e, hashStack(e.pcs, skip, depth),
		func(o *stackEntry) bool { return o.is(e.pcs, skip, depth) },
		func(o *stackEntry) uint64 { return hashStack(o.pcs, o.skip, o.depth) })
	t.memoMu.Unlock()
	return ctx
}

// cover reports how many of the physical return addresses phys, the top
// of the stack, determine a capture, or 0 if they do not. logical is what
// runtime.Callers returned for the capture, skipped frames first; full
// reports that it filled its buffer, complete that phys reaches the
// goroutine's outermost frame.
func cover(phys, logical []uintptr, full, complete bool) int {
	if full {
		// Unfold phys's inlined calls and align them with logical. An
		// innermost call logical lacks is a wrapper runtime.Callers elides
		// (a method value's, a generic instantiation's, a go statement's);
		// any other difference leaves the stack undetermined. The
		// trailing 0 (no function) makes CallersFrames unfold the last
		// frame too, and the copy keeps phys off the heap.
		own := make([]uintptr, len(phys)+1)
		copy(own, phys)
		frames := runtime.CallersFrames(own)
		next, j := 0, 0
		for more := len(phys) > 0; more && j < len(logical); {
			var f runtime.Frame
			f, more = frames.Next()
			// Frame.PC is the return address less one, as in logical.
			pc := f.PC + 1
			innermost := next < len(phys) && pc == phys[next]
			if innermost {
				next++
			}
			if pc == logical[j] {
				j++
			} else if !innermost {
				break
			}
		}
		if j == len(logical) {
			return next
		}
	}
	if complete {
		return len(phys)
	}
	return 0
}

// internPCs interns the context of the logical return addresses pcs.
// Frame symbolization only happens the first time a given stack is seen.
func (t *Table) internPCs(pcs []uintptr) *Context {
	key := hashPCs(pcs)
	if c, ok := t.byKey.Load(key); ok {
		// The occupant is almost always this very stack; the PC compare
		// guards against a 64-bit collision silently merging two contexts.
		if ctx := c.(*Context); ctx.samePCs(pcs) {
			return ctx
		}
	}

	// From here on only the copy is used: pcs reaching CallersFrames or
	// the closures would move the caller's buffer to the heap on every
	// capture, hits too.
	owned := append([]uintptr(nil), pcs...)
	// Symbolize before interning; duplicate work on a race is harmless
	// because LoadOrStore is first-writer-wins.
	frames := make([]Frame, 0, len(owned))
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
	return c.label == "" && slices.Equal(c.pcs, pcs)
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
