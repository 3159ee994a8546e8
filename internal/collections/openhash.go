package collections

import (
	"chameleon/internal/heap"
	"chameleon/internal/spec"
)

// Open-addressing implementations, in the spirit of the Trove collections
// the paper lists as swappable (§4.2): elements live directly in parallel
// arrays — no per-entry objects — trading entry-object overhead for a
// lower load factor and sensitivity to hash quality ("selecting an
// open-addressing implementation of a HashMap requires some guarantees on
// the quality of the hash function being used to avoid disastrous
// performance implications").
//
// Each open-addressing backing is the chained backing's ordered hash store
// (hashSet, hashMap: a Go map plus an insertion-order index) with its own
// kind, footprint, initial table size and load factor; only those live
// here. The simulated footprint models the open-addressing layout: a key
// array, a value array (maps only) and a one-byte-per-slot state array,
// sized at the next power of two above size/loadFactor with Trove's
// default load factor of 0.5.

// openLoadPct is Trove's default load factor, 0.5.
const openLoadPct = 50

// openTableCap reports the open-addressing table size for a requested
// capacity.
func openTableCap(capacity int) int {
	c := defaultTableCap
	for c*openLoadPct < capacity*100 {
		c <<= 1
	}
	return c
}

// openFoot models the open-addressing layout.
func openFoot(m heap.SizeModel, n, tableCap int, arrays int64) heap.Footprint {
	obj := m.ObjectFields(int64(arrays)+1, 2) // array refs + state ref + size + free count
	var live, used int64
	live = obj + arrays*m.PtrArray(int64(tableCap)) + m.AlignUp(m.ArrayHeader+int64(tableCap))
	used = obj + arrays*m.PtrArray(int64(n)) + m.AlignUp(m.ArrayHeader+int64(n))
	f := heap.Footprint{Live: live, Used: used}
	if n > 0 {
		f.Core = m.PtrArray(arrays * int64(n))
	}
	return f
}

// openHashSet is the open-addressing set.
type openHashSet[T comparable] struct{ hashSet[T] }

func newOpenHashSet[T comparable](capacity int) *openHashSet[T] {
	return &openHashSet[T]{hashSet[T]{m: make(map[T]struct{}), tableCap: openTableCap(capacity), loadPct: openLoadPct}}
}

func (s *openHashSet[T]) kind() spec.Kind { return spec.KindOpenHashSet }

func (s *openHashSet[T]) foot(m heap.SizeModel) heap.Footprint {
	return openFoot(m, len(s.m), s.tableCap, 1)
}

// openHashMap is the open-addressing map.
type openHashMap[K comparable, V comparable] struct{ hashMap[K, V] }

func newOpenHashMap[K comparable, V comparable](capacity int) *openHashMap[K, V] {
	return &openHashMap[K, V]{hashMap[K, V]{m: make(map[K]V), tableCap: openTableCap(capacity), loadPct: openLoadPct}}
}

func (h *openHashMap[K, V]) kind() spec.Kind { return spec.KindOpenHashMap }

func (h *openHashMap[K, V]) foot(m heap.SizeModel) heap.Footprint {
	return openFoot(m, len(h.m), h.tableCap, 2)
}
