package collections

import (
	"chameleon/internal/alloctx"
	"chameleon/internal/heap"
	"chameleon/internal/spec"
)

// Set is the wrapper type for set collections. All implementations maintain
// the set invariant (no duplicates); which one backs a given allocation is
// decided per context.
type Set[T comparable] struct {
	base
	impl     setImpl[T]
	declared spec.Kind
	adaptAt  int
}

var _ heap.Collection = (*Set[int])(nil)

// AdaptAt sets the array-to-hash conversion threshold for size-adapting
// sets and maps (the §2.3 sweep parameter). It is ignored by other kinds.
func AdaptAt(threshold int) Option {
	return func(o allocOpts) allocOpts { o.adaptThreshold = threshold; return o }
}

func newSet[T comparable](rt *Runtime, ctx *alloctx.Context, declared spec.Kind, o *allocOpts) *Set[T] {
	dec := rt.decide(ctx, declared, o)
	s := &Set[T]{declared: declared, adaptAt: o.adaptThreshold}
	s.impl = newSetImpl[T](dec.Impl, dec.Capacity, o.adaptThreshold)
	rt.install(&s.base, s, ctx, declared, dec)
	return s
}

// NewHashSet allocates a set declared as a HashSet (the default set).
func NewHashSet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	o := applyOpts(opts)
	return newSet[T](rt, rt.resolveContext(&o), spec.KindHashSet, &o)
}

// NewArraySet allocates a set declared as an ArraySet.
func NewArraySet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	o := applyOpts(opts)
	return newSet[T](rt, rt.resolveContext(&o), spec.KindArraySet, &o)
}

// NewOpenHashSet allocates a set declared as an OpenHashSet (Trove-style
// open addressing: no entry objects, load factor 0.5).
func NewOpenHashSet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	o := applyOpts(opts)
	return newSet[T](rt, rt.resolveContext(&o), spec.KindOpenHashSet, &o)
}

// NewLazySet allocates a set declared as a LazySet.
func NewLazySet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	o := applyOpts(opts)
	return newSet[T](rt, rt.resolveContext(&o), spec.KindLazySet, &o)
}

// NewLinkedHashSet allocates a set declared as a LinkedHashSet.
func NewLinkedHashSet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	o := applyOpts(opts)
	return newSet[T](rt, rt.resolveContext(&o), spec.KindLinkedHashSet, &o)
}

// NewSizeAdaptingSet allocates a set declared as a SizeAdaptingSet.
func NewSizeAdaptingSet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	o := applyOpts(opts)
	return newSet[T](rt, rt.resolveContext(&o), spec.KindSizeAdaptingSet, &o)
}

// HeapFootprint implements heap.Collection.
func (s *Set[T]) HeapFootprint() heap.Footprint {
	f := s.impl.foot(s.rt.Model())
	w := s.rt.Model().ObjectFields(1, 0)
	f.Live += w
	f.Used += w
	return f
}

// ContextKey reports the key of the allocation context the collection was
// allocated at (0 when context tracking was off for this instance).
func (s *Set[T]) ContextKey() uint64 { return s.ctxKey }

// KindName implements heap.Collection.
func (s *Set[T]) KindName() string { return s.impl.kind().String() }

// Kind reports the current backing implementation kind.
func (s *Set[T]) Kind() spec.Kind { return s.impl.kind() }

// Declared reports the kind declared at the allocation site.
func (s *Set[T]) Declared() spec.Kind { return s.declared }

// Free releases the set.
func (s *Set[T]) Free() { s.free() }

// Add inserts v, reporting whether the set changed.
func (s *Set[T]) Add(v T) bool {
	added := s.impl.add(v)
	s.afterMutate(spec.Add, s.impl.size())
	return added
}

// AddAll inserts every element of src.
func (s *Set[T]) AddAll(src *Set[T]) {
	src.recordRead(spec.Copied)
	src.impl.each(func(v T) bool {
		s.impl.add(v)
		return true
	})
	s.afterMutate(spec.AddAll, s.impl.size())
}

// ContainsAll reports whether every element of src is in s.
func (s *Set[T]) ContainsAll(src *Set[T]) bool {
	s.recordRead(spec.ContainsAll)
	src.recordRead(spec.Copied)
	all := true
	src.impl.each(func(v T) bool {
		if !s.impl.contains(v) {
			all = false
			return false
		}
		return true
	})
	return all
}

// RemoveAll deletes every element of src from s, reporting whether s
// changed.
func (s *Set[T]) RemoveAll(src *Set[T]) bool {
	src.recordRead(spec.Copied)
	changed := false
	src.impl.each(func(v T) bool {
		if s.impl.remove(v) {
			changed = true
		}
		return true
	})
	s.afterMutate(spec.RemoveAll, s.impl.size())
	return changed
}

// RetainAll keeps only the elements of s that are also in src, reporting
// whether s changed.
func (s *Set[T]) RetainAll(src *Set[T]) bool {
	src.recordRead(spec.Copied)
	var drop []T
	s.impl.each(func(v T) bool {
		if !src.impl.contains(v) {
			drop = append(drop, v)
		}
		return true
	})
	for _, v := range drop {
		s.impl.remove(v)
	}
	s.afterMutate(spec.RetainAll, s.impl.size())
	return len(drop) > 0
}

// Remove deletes v, reporting whether it was present.
func (s *Set[T]) Remove(v T) bool {
	ok := s.impl.remove(v)
	s.afterMutate(spec.Remove, s.impl.size())
	return ok
}

// Contains reports membership of v.
func (s *Set[T]) Contains(v T) bool {
	s.recordRead(spec.Contains)
	return s.impl.contains(v)
}

// Size reports the number of elements.
func (s *Set[T]) Size() int {
	s.recordRead(spec.Size)
	return s.impl.size()
}

// IsEmpty reports whether the set has no elements.
func (s *Set[T]) IsEmpty() bool {
	s.recordRead(spec.IsEmpty)
	return s.impl.size() == 0
}

// Capacity reports the backing implementation's current capacity.
func (s *Set[T]) Capacity() int { return s.impl.capacity() }

// Clear removes all elements.
func (s *Set[T]) Clear() {
	s.impl.clear()
	s.afterMutate(spec.Clear, 0)
}

// Iterator returns an iterator over a snapshot of the elements.
func (s *Set[T]) Iterator() *Iterator[T] {
	n := s.impl.size()
	s.noteIterator(n)
	items := make([]T, 0, n)
	s.impl.each(func(v T) bool {
		items = append(items, v)
		return true
	})
	return newIterator(items)
}

// Each calls f for every element until f returns false (unprofiled
// internal traversal).
func (s *Set[T]) Each(f func(T) bool) { s.impl.each(f) }

// ToSlice copies the elements into a new slice in iteration order.
func (s *Set[T]) ToSlice() []T {
	out := make([]T, 0, s.impl.size())
	s.impl.each(func(v T) bool {
		out = append(out, v)
		return true
	})
	return out
}
