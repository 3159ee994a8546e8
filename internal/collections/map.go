package collections

import (
	"chameleon/internal/alloctx"
	"chameleon/internal/heap"
	"chameleon/internal/spec"
)

// Map is the wrapper type for map collections.
type Map[K comparable, V comparable] struct {
	base
	impl     mapImpl[K, V]
	declared spec.Kind
}

var _ heap.Collection = (*Map[int, int])(nil)

func newMap[K comparable, V comparable](rt *Runtime, ctx *alloctx.Context, declared spec.Kind, o *allocOpts) *Map[K, V] {
	dec := rt.decide(ctx, declared, o)
	mp := &Map[K, V]{declared: declared}
	mp.impl = newMapImpl[K, V](dec.Impl, dec.Capacity, o.adaptThreshold)
	rt.install(&mp.base, mp, ctx, declared, dec)
	return mp
}

// NewHashMap allocates a map declared as a HashMap (the default map).
func NewHashMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	o := applyOpts(opts)
	return newMap[K, V](rt, rt.resolveContext(&o), spec.KindHashMap, &o)
}

// NewArrayMap allocates a map declared as an ArrayMap.
func NewArrayMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	o := applyOpts(opts)
	return newMap[K, V](rt, rt.resolveContext(&o), spec.KindArrayMap, &o)
}

// NewOpenHashMap allocates a map declared as an OpenHashMap (Trove-style
// open addressing: parallel key/value arrays, no entry objects).
func NewOpenHashMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	o := applyOpts(opts)
	return newMap[K, V](rt, rt.resolveContext(&o), spec.KindOpenHashMap, &o)
}

// NewLazyMap allocates a map declared as a LazyMap.
func NewLazyMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	o := applyOpts(opts)
	return newMap[K, V](rt, rt.resolveContext(&o), spec.KindLazyMap, &o)
}

// NewSingletonMap allocates a map declared as a SingletonMap.
func NewSingletonMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	o := applyOpts(opts)
	return newMap[K, V](rt, rt.resolveContext(&o), spec.KindSingletonMap, &o)
}

// NewLinkedHashMap allocates a map declared as a LinkedHashMap.
func NewLinkedHashMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	o := applyOpts(opts)
	return newMap[K, V](rt, rt.resolveContext(&o), spec.KindLinkedHashMap, &o)
}

// NewSizeAdaptingMap allocates a map declared as a SizeAdaptingMap (the
// §2.3 hybrid; combine with AdaptAt to set the conversion threshold).
func NewSizeAdaptingMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	o := applyOpts(opts)
	return newMap[K, V](rt, rt.resolveContext(&o), spec.KindSizeAdaptingMap, &o)
}

// HeapFootprint implements heap.Collection.
func (mp *Map[K, V]) HeapFootprint() heap.Footprint {
	f := mp.impl.foot(mp.rt.Model())
	w := mp.rt.Model().ObjectFields(1, 0)
	f.Live += w
	f.Used += w
	return f
}

// ContextKey reports the key of the allocation context the collection was
// allocated at (0 when context tracking was off for this instance).
func (mp *Map[K, V]) ContextKey() uint64 { return mp.ctxKey }

// KindName implements heap.Collection.
func (mp *Map[K, V]) KindName() string { return mp.impl.kind().String() }

// Kind reports the current backing implementation kind.
func (mp *Map[K, V]) Kind() spec.Kind { return mp.impl.kind() }

// Declared reports the kind declared at the allocation site.
func (mp *Map[K, V]) Declared() spec.Kind { return mp.declared }

// Free releases the map.
func (mp *Map[K, V]) Free() { mp.free() }

// Put associates v with k, returning the previous value if one existed.
func (mp *Map[K, V]) Put(k K, v V) (old V, replaced bool) {
	old, replaced = mp.impl.put(k, v)
	mp.afterMutate(spec.Put, mp.impl.size())
	return old, replaced
}

// PutAll copies every entry of src into mp.
func (mp *Map[K, V]) PutAll(src *Map[K, V]) {
	src.recordRead(spec.Copied)
	src.impl.each(func(k K, v V) bool {
		mp.impl.put(k, v)
		return true
	})
	mp.afterMutate(spec.PutAll, mp.impl.size())
}

// Get looks up k (the profiled "#get(Object)" operation).
func (mp *Map[K, V]) Get(k K) (V, bool) {
	mp.recordRead(spec.GetKey)
	return mp.impl.get(k)
}

// Remove deletes the entry for k, returning the removed value.
func (mp *Map[K, V]) Remove(k K) (V, bool) {
	v, ok := mp.impl.removeKey(k)
	mp.afterMutate(spec.RemoveKey, mp.impl.size())
	return v, ok
}

// ContainsKey reports whether k has an entry.
func (mp *Map[K, V]) ContainsKey(k K) bool {
	mp.recordRead(spec.ContainsKey)
	return mp.impl.containsKey(k)
}

// ContainsValue reports whether any entry has value v.
func (mp *Map[K, V]) ContainsValue(v V) bool {
	mp.recordRead(spec.ContainsValue)
	return mp.impl.containsValue(v)
}

// Size reports the number of entries.
func (mp *Map[K, V]) Size() int {
	mp.recordRead(spec.Size)
	return mp.impl.size()
}

// IsEmpty reports whether the map has no entries.
func (mp *Map[K, V]) IsEmpty() bool {
	mp.recordRead(spec.IsEmpty)
	return mp.impl.size() == 0
}

// Capacity reports the backing implementation's current capacity.
func (mp *Map[K, V]) Capacity() int { return mp.impl.capacity() }

// Clear removes all entries.
func (mp *Map[K, V]) Clear() {
	mp.impl.clear()
	mp.afterMutate(spec.Clear, 0)
}

// Iterator returns an iterator over a snapshot of the entries.
func (mp *Map[K, V]) Iterator() *Iterator[Pair[K, V]] {
	n := mp.impl.size()
	mp.noteIterator(n)
	items := make([]Pair[K, V], 0, n)
	mp.impl.each(func(k K, v V) bool {
		items = append(items, Pair[K, V]{Key: k, Value: v})
		return true
	})
	return newIterator(items)
}

// Each calls f for every entry until f returns false (unprofiled internal
// traversal).
func (mp *Map[K, V]) Each(f func(K, V) bool) { mp.impl.each(f) }

// Values copies the values into a new slice in iteration order.
func (mp *Map[K, V]) Values() []V {
	out := make([]V, 0, mp.impl.size())
	mp.impl.each(func(_ K, v V) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Entries copies the entries into a new slice in iteration order.
func (mp *Map[K, V]) Entries() []Pair[K, V] {
	out := make([]Pair[K, V], 0, mp.impl.size())
	mp.impl.each(func(k K, v V) bool {
		out = append(out, Pair[K, V]{Key: k, Value: v})
		return true
	})
	return out
}

// Keys copies the keys into a new slice in iteration order.
func (mp *Map[K, V]) Keys() []K {
	out := make([]K, 0, mp.impl.size())
	mp.impl.each(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}
