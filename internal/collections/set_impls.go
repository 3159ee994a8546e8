package collections

import (
	"fmt"

	"chameleon/internal/heap"
	"chameleon/internal/spec"
)

// setImpl is the internal contract for set backing implementations. Two
// stores hold every set's elements: the array store (arraySet embeds
// arrayList) and the ordered hash store (hashSet, which OpenHashSet
// embeds); LazySet and SizeAdaptingSet wrap them.
type setImpl[T comparable] interface {
	kind() spec.Kind
	size() int
	capacity() int
	add(v T) bool
	remove(v T) bool
	contains(v T) bool
	clear()
	each(f func(T) bool)
	foot(m heap.SizeModel) heap.Footprint
}

const (
	defaultTableCap = 16
	// chainedLoadPct is the Java default load factor, 0.75.
	chainedLoadPct = 75
)

// tableCapFor rounds a requested capacity up to a power of two of at least
// defaultTableCap, like java.util.HashMap's table sizing.
func tableCapFor(capacity int) int {
	c := defaultTableCap
	for c < capacity {
		c <<= 1
	}
	return c
}

// hashCore models the shared layout of chained hash tables: an object
// header with table reference and bookkeeping ints, a pointer array of
// tableCap buckets, and one entry object per element.
func hashCore(m heap.SizeModel, n, tableCap int, entry int64) heap.Footprint {
	obj := m.ObjectFields(1, 3) // table ref + size + modCount + threshold
	f := heap.Footprint{
		Live: obj + m.PtrArray(int64(tableCap)) + int64(n)*entry,
		Used: obj + m.PtrArray(int64(n)) + int64(n)*entry,
	}
	if n > 0 {
		f.Core = m.PtrArray(int64(n))
	}
	return f
}

// hashSet is the ordered hash store of every hashed set (§4.2 "HashSet
// (default) - backed up by a HashMap"): a Go map provides the semantics and
// an insertion-order index the deterministic iteration, while the simulated
// table capacity follows the layout's doubling policy so the footprint
// reproduces the Java layout. HashSet and LinkedHashSet are this type;
// OpenHashSet (openhash.go) embeds it and overrides only kind and foot.
type hashSet[T comparable] struct {
	m        map[T]struct{}
	order    []T // insertion order, for deterministic iteration
	tableCap int
	loadPct  uint8 // the table doubles once more than loadPct% of it is full
	linked   bool  // LinkedHashSet: entries carry before/after links
}

func newHashSet[T comparable](capacity int, linked bool) *hashSet[T] {
	return &hashSet[T]{
		m:        make(map[T]struct{}),
		tableCap: tableCapFor(capacity),
		loadPct:  chainedLoadPct,
		linked:   linked,
	}
}

func (s *hashSet[T]) kind() spec.Kind {
	if s.linked {
		return spec.KindLinkedHashSet
	}
	return spec.KindHashSet
}

func (s *hashSet[T]) size() int     { return len(s.m) }
func (s *hashSet[T]) capacity() int { return s.tableCap }

func (s *hashSet[T]) add(v T) bool {
	if _, ok := s.m[v]; ok {
		return false
	}
	s.m[v] = struct{}{}
	s.order = append(s.order, v)
	for len(s.m)*100 > s.tableCap*int(s.loadPct) {
		s.tableCap <<= 1
	}
	return true
}

func (s *hashSet[T]) remove(v T) bool {
	if _, ok := s.m[v]; !ok {
		return false
	}
	delete(s.m, v)
	for i, x := range s.order {
		if x == v {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return true
}

func (s *hashSet[T]) contains(v T) bool {
	_, ok := s.m[v]
	return ok
}

func (s *hashSet[T]) clear() {
	clear(s.m)
	s.order = s.order[:0]
}

func (s *hashSet[T]) each(f func(T) bool) {
	for _, v := range s.order {
		if !f(v) {
			return
		}
	}
}

func (s *hashSet[T]) foot(m heap.SizeModel) heap.Footprint {
	// element ref + next + hash (+ before/after links when linked)
	entryPtrs := int64(3)
	if s.linked {
		entryPtrs += 2
	}
	entry := m.ObjectFields(entryPtrs, 0)
	f := hashCore(m, len(s.m), s.tableCap, entry)
	// The set object wrapping its backing map.
	setObj := m.ObjectFields(1, 0)
	f.Live += setObj
	f.Used += setObj
	return f
}

// arraySet is the array store with linear-scan membership (§4.2 "ArraySet
// - backed up by an array"): arrayList with a membership-guarded add. For
// small sets it is both smaller and faster than a hash set (paper Table 2).
type arraySet[T comparable] struct{ arrayList[T] }

func newArraySet[T comparable](capacity int) *arraySet[T] {
	return &arraySet[T]{arrayStore[T](capacity)}
}

func (s *arraySet[T]) kind() spec.Kind { return spec.KindArraySet }

func (s *arraySet[T]) add(v T) bool {
	if s.contains(v) {
		return false
	}
	s.arrayList.add(v)
	return true
}

func (s *arraySet[T]) contains(v T) bool { return s.indexOf(v) >= 0 }

func (s *arraySet[T]) foot(m heap.SizeModel) heap.Footprint {
	n := len(s.data)
	obj := m.ObjectFields(1, 1) // array ref + size
	return arrayFoot(obj, m.PtrArray(int64(s.capV)), m.PtrArray(int64(n)), n)
}

// lazySet allocates its internal array on first update (§4.2).
type lazySet[T comparable] struct {
	inner      *arraySet[T]
	initialCap int
}

func newLazySet[T comparable](capacity int) *lazySet[T] {
	return &lazySet[T]{initialCap: capacity}
}

func (s *lazySet[T]) kind() spec.Kind { return spec.KindLazySet }

func (s *lazySet[T]) size() int {
	if s.inner == nil {
		return 0
	}
	return s.inner.size()
}

func (s *lazySet[T]) capacity() int {
	if s.inner == nil {
		return 0
	}
	return s.inner.capacity()
}

func (s *lazySet[T]) add(v T) bool {
	if s.inner == nil {
		s.inner = newArraySet[T](s.initialCap)
	}
	return s.inner.add(v)
}

func (s *lazySet[T]) remove(v T) bool {
	if s.inner == nil {
		return false
	}
	return s.inner.remove(v)
}

func (s *lazySet[T]) contains(v T) bool {
	if s.inner == nil {
		return false
	}
	return s.inner.contains(v)
}

func (s *lazySet[T]) clear() {
	if s.inner != nil {
		s.inner.clear()
	}
}

func (s *lazySet[T]) each(f func(T) bool) {
	if s.inner != nil {
		s.inner.each(f)
	}
}

func (s *lazySet[T]) foot(m heap.SizeModel) heap.Footprint {
	if s.inner == nil {
		obj := m.ObjectFields(1, 1)
		return heap.Footprint{Live: obj, Used: obj}
	}
	return s.inner.foot(m)
}

// sizeAdaptingSet is the §2.3 hybrid: it starts as an array set and
// switches the underlying implementation to a hash set when the size
// crosses the conversion threshold.
type sizeAdaptingSet[T comparable] struct {
	inner     setImpl[T]
	threshold int
}

// DefaultAdaptThreshold is the default array-to-hash conversion size. The
// paper found 16 to give a low footprint at ~8% time cost in TVLA, with
// both smaller (13) and larger thresholds doing worse (§2.3).
const DefaultAdaptThreshold = 16

func newSizeAdaptingSet[T comparable](capacity, threshold int) *sizeAdaptingSet[T] {
	if threshold <= 0 {
		threshold = DefaultAdaptThreshold
	}
	if capacity <= 0 || capacity > threshold {
		capacity = min(defaultListCap, threshold)
	}
	return &sizeAdaptingSet[T]{inner: newArraySet[T](capacity), threshold: threshold}
}

func (s *sizeAdaptingSet[T]) kind() spec.Kind { return spec.KindSizeAdaptingSet }
func (s *sizeAdaptingSet[T]) size() int       { return s.inner.size() }
func (s *sizeAdaptingSet[T]) capacity() int   { return s.inner.capacity() }

func (s *sizeAdaptingSet[T]) add(v T) bool {
	added := s.inner.add(v)
	if added && s.inner.kind() == spec.KindArraySet && s.inner.size() > s.threshold {
		hs := newHashSet[T](s.inner.size(), false)
		s.inner.each(func(x T) bool {
			hs.add(x)
			return true
		})
		s.inner = hs
	}
	return added
}

func (s *sizeAdaptingSet[T]) remove(v T) bool   { return s.inner.remove(v) }
func (s *sizeAdaptingSet[T]) contains(v T) bool { return s.inner.contains(v) }

func (s *sizeAdaptingSet[T]) clear() {
	// Clearing returns to the compact representation, in place when the
	// store already is one.
	c := min(defaultListCap, s.threshold)
	if a, ok := s.inner.(*arraySet[T]); ok {
		a.clear()
		a.capV = c
		return
	}
	s.inner = newArraySet[T](c)
}

func (s *sizeAdaptingSet[T]) each(f func(T) bool) { s.inner.each(f) }

func (s *sizeAdaptingSet[T]) foot(m heap.SizeModel) heap.Footprint {
	adapter := m.ObjectFields(1, 1) // inner ref + threshold
	f := s.inner.foot(m)
	f.Live += adapter
	f.Used += adapter
	return f
}

// newSetImpl constructs a set backing implementation by kind.
func newSetImpl[T comparable](k spec.Kind, capacity, threshold int) setImpl[T] {
	switch k {
	case spec.KindHashSet, spec.KindSet, spec.KindCollection, spec.KindNone:
		return newHashSet[T](capacity, false)
	case spec.KindLinkedHashSet:
		return newHashSet[T](capacity, true)
	case spec.KindOpenHashSet:
		return newOpenHashSet[T](capacity)
	case spec.KindArraySet:
		return newArraySet[T](capacity)
	case spec.KindLazySet:
		return newLazySet[T](capacity)
	case spec.KindSizeAdaptingSet:
		return newSizeAdaptingSet[T](capacity, threshold)
	default:
		panic(fmt.Sprintf("collections: %v is not a set implementation", k))
	}
}
