package collections

import (
	"chameleon/internal/spec"
)

// Fixed constructors: the ahead-of-time specialization surface that
// chameleon-apply rewrites decided allocation sites onto (docs/SPECIALIZE.md).
// A fixed constructor returns the same wrapper type as its profiled
// counterpart — client declarations (*List[T], *Set[T], *Map[K,V]) do not
// change — but the backing implementation is final: there is no context
// resolution, no decision, no profiler instance and no heap ticket. The
// wrapper tax collapses to the nil-checks on the fast paths, which is the
// point: a site whose decision snapshot is settled no longer needs to pay
// for the machinery that settled it.
//
// Fixed collections still honor Cap (initial capacity) and AdaptAt (the
// size-adapting threshold). At labels are accepted and ignored, so a
// rewritten call keeps its context label in source — reverting a
// specialization is a name change, not an archaeology project. Impl is
// ignored too: the implementation is the constructor.
//
// The names deliberately do not collide with the "New<Kind>" pattern
// chameleon-sites discovers: a specialized site is a decided site, and
// re-profiling it would only resurrect the overhead the rewrite removed.

func newFixedList[T comparable](rt *Runtime, kind spec.Kind, o *allocOpts) *List[T] {
	l := &List[T]{declared: kind, impl: newListImpl[T](kind, o.capacity)}
	l.rt = rt
	l.coll = l
	return l
}

func newFixedSet[T comparable](rt *Runtime, kind spec.Kind, o *allocOpts) *Set[T] {
	s := &Set[T]{declared: kind, adaptAt: o.adaptThreshold}
	s.impl = newSetImpl[T](kind, o.capacity, o.adaptThreshold)
	s.rt = rt
	s.coll = s
	return s
}

func newFixedMap[K comparable, V comparable](rt *Runtime, kind spec.Kind, o *allocOpts) *Map[K, V] {
	mp := &Map[K, V]{declared: kind}
	mp.impl = newMapImpl[K, V](kind, o.capacity, o.adaptThreshold)
	mp.rt = rt
	mp.coll = mp
	return mp
}

// NewFixedArrayList allocates an unprofiled list permanently backed by an
// ArrayList.
func NewFixedArrayList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	o := applyOpts(opts)
	return newFixedList[T](rt, spec.KindArrayList, &o)
}

// NewFixedLinkedList allocates an unprofiled list permanently backed by a
// LinkedList.
func NewFixedLinkedList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	o := applyOpts(opts)
	return newFixedList[T](rt, spec.KindLinkedList, &o)
}

// NewFixedSinglyLinkedList allocates an unprofiled list permanently backed
// by a SinglyLinkedList.
func NewFixedSinglyLinkedList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	o := applyOpts(opts)
	return newFixedList[T](rt, spec.KindSinglyLinkedList, &o)
}

// NewFixedEmptyList allocates an unprofiled immutable empty list.
func NewFixedEmptyList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	o := applyOpts(opts)
	return newFixedList[T](rt, spec.KindEmptyList, &o)
}

// NewFixedLazyArrayList allocates an unprofiled list permanently backed by
// a LazyArrayList.
func NewFixedLazyArrayList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	o := applyOpts(opts)
	return newFixedList[T](rt, spec.KindLazyArrayList, &o)
}

// NewFixedSingletonList allocates an unprofiled list permanently backed by
// a SingletonList.
func NewFixedSingletonList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	o := applyOpts(opts)
	return newFixedList[T](rt, spec.KindSingletonList, &o)
}

// NewFixedIntArrayList allocates an unprofiled List[int] permanently backed
// by an unboxed int array.
func NewFixedIntArrayList(rt *Runtime, opts ...Option) *List[int] {
	o := applyOpts(opts)
	l := &List[int]{declared: spec.KindIntArray, impl: newIntArrayList(o.capacity)}
	l.rt = rt
	l.coll = l
	return l
}

// NewFixedHashSet allocates an unprofiled set permanently backed by a
// HashSet.
func NewFixedHashSet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	o := applyOpts(opts)
	return newFixedSet[T](rt, spec.KindHashSet, &o)
}

// NewFixedArraySet allocates an unprofiled set permanently backed by an
// ArraySet.
func NewFixedArraySet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	o := applyOpts(opts)
	return newFixedSet[T](rt, spec.KindArraySet, &o)
}

// NewFixedOpenHashSet allocates an unprofiled set permanently backed by an
// OpenHashSet.
func NewFixedOpenHashSet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	o := applyOpts(opts)
	return newFixedSet[T](rt, spec.KindOpenHashSet, &o)
}

// NewFixedLazySet allocates an unprofiled set permanently backed by a
// LazySet.
func NewFixedLazySet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	o := applyOpts(opts)
	return newFixedSet[T](rt, spec.KindLazySet, &o)
}

// NewFixedLinkedHashSet allocates an unprofiled set permanently backed by a
// LinkedHashSet.
func NewFixedLinkedHashSet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	o := applyOpts(opts)
	return newFixedSet[T](rt, spec.KindLinkedHashSet, &o)
}

// NewFixedSizeAdaptingSet allocates an unprofiled size-adapting set.
func NewFixedSizeAdaptingSet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	o := applyOpts(opts)
	return newFixedSet[T](rt, spec.KindSizeAdaptingSet, &o)
}

// NewFixedHashMap allocates an unprofiled map permanently backed by a
// HashMap.
func NewFixedHashMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	o := applyOpts(opts)
	return newFixedMap[K, V](rt, spec.KindHashMap, &o)
}

// NewFixedArrayMap allocates an unprofiled map permanently backed by an
// ArrayMap.
func NewFixedArrayMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	o := applyOpts(opts)
	return newFixedMap[K, V](rt, spec.KindArrayMap, &o)
}

// NewFixedOpenHashMap allocates an unprofiled map permanently backed by an
// OpenHashMap.
func NewFixedOpenHashMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	o := applyOpts(opts)
	return newFixedMap[K, V](rt, spec.KindOpenHashMap, &o)
}

// NewFixedLazyMap allocates an unprofiled map permanently backed by a
// LazyMap.
func NewFixedLazyMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	o := applyOpts(opts)
	return newFixedMap[K, V](rt, spec.KindLazyMap, &o)
}

// NewFixedSingletonMap allocates an unprofiled map permanently backed by a
// SingletonMap.
func NewFixedSingletonMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	o := applyOpts(opts)
	return newFixedMap[K, V](rt, spec.KindSingletonMap, &o)
}

// NewFixedLinkedHashMap allocates an unprofiled map permanently backed by a
// LinkedHashMap.
func NewFixedLinkedHashMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	o := applyOpts(opts)
	return newFixedMap[K, V](rt, spec.KindLinkedHashMap, &o)
}

// NewFixedSizeAdaptingMap allocates an unprofiled size-adapting map.
func NewFixedSizeAdaptingMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	o := applyOpts(opts)
	return newFixedMap[K, V](rt, spec.KindSizeAdaptingMap, &o)
}

// FixedConstructorName reports the fixed-constructor name chameleon-apply
// rewrites a decided site onto for implementation kind k, and whether one
// exists. It lives here, next to the constructors themselves, so the
// rewriter can never drift from the actual surface.
func FixedConstructorName(k spec.Kind) (string, bool) {
	if k == spec.KindIntArray {
		return "NewFixedIntArrayList", true
	}
	if k.IsAbstract() || k == spec.KindNone {
		return "", false
	}
	return "NewFixed" + k.String(), true
}
