package collections

import (
	"fmt"

	"chameleon/internal/heap"
	"chameleon/internal/spec"
)

// mapImpl is the internal contract for map backing implementations.
type mapImpl[K comparable, V comparable] interface {
	kind() spec.Kind
	size() int
	capacity() int
	put(k K, v V) (old V, replaced bool)
	get(k K) (V, bool)
	removeKey(k K) (V, bool)
	containsKey(k K) bool
	containsValue(v V) bool
	clear()
	each(f func(K, V) bool)
	foot(m heap.SizeModel) heap.Footprint
}

// hashMap is the ordered hash store of every hashed map, and by itself
// the default Map: a chained hash table. A Go map provides the semantics
// (plus an insertion-order index for deterministic iteration); the
// simulated table capacity and per-entry object sizes follow the Java
// layout — each entry is an object with key/value/next references and a
// cached hash, 24 bytes under the 32-bit model (§2.3). HashMap and
// LinkedHashMap are this type; OpenHashMap (openhash.go) embeds it and
// overrides only kind and foot.
type hashMap[K comparable, V comparable] struct {
	m        map[K]V
	order    []K
	tableCap int
	loadPct  uint8 // the table doubles once more than loadPct% of it is full
	linked   bool  // LinkedHashMap: entries carry before/after links
}

func newHashMap[K comparable, V comparable](capacity int, linked bool) *hashMap[K, V] {
	return &hashMap[K, V]{
		m:        make(map[K]V),
		tableCap: tableCapFor(capacity),
		loadPct:  chainedLoadPct,
		linked:   linked,
	}
}

func (h *hashMap[K, V]) kind() spec.Kind {
	if h.linked {
		return spec.KindLinkedHashMap
	}
	return spec.KindHashMap
}

func (h *hashMap[K, V]) size() int     { return len(h.m) }
func (h *hashMap[K, V]) capacity() int { return h.tableCap }

func (h *hashMap[K, V]) put(k K, v V) (V, bool) {
	old, existed := h.m[k]
	h.m[k] = v
	if !existed {
		h.order = append(h.order, k)
		for len(h.m)*100 > h.tableCap*int(h.loadPct) {
			h.tableCap <<= 1
		}
	}
	return old, existed
}

func (h *hashMap[K, V]) get(k K) (V, bool) {
	v, ok := h.m[k]
	return v, ok
}

func (h *hashMap[K, V]) removeKey(k K) (V, bool) {
	v, ok := h.m[k]
	if !ok {
		return v, false
	}
	delete(h.m, k)
	for i, x := range h.order {
		if x == k {
			h.order = append(h.order[:i], h.order[i+1:]...)
			break
		}
	}
	return v, true
}

func (h *hashMap[K, V]) containsKey(k K) bool {
	_, ok := h.m[k]
	return ok
}

func (h *hashMap[K, V]) containsValue(v V) bool {
	for _, x := range h.m {
		if x == v {
			return true
		}
	}
	return false
}

func (h *hashMap[K, V]) clear() {
	clear(h.m)
	h.order = h.order[:0]
}

func (h *hashMap[K, V]) each(f func(K, V) bool) {
	for _, k := range h.order {
		if !f(k, h.m[k]) {
			return
		}
	}
}

func (h *hashMap[K, V]) foot(m heap.SizeModel) heap.Footprint {
	entryPtrs := int64(3) // key + value + next
	if h.linked {
		entryPtrs += 2 // before + after
	}
	entry := m.ObjectFields(entryPtrs, 1) // + cached hash
	obj := m.ObjectFields(1, 3)
	n := len(h.m)
	f := heap.Footprint{
		Live: obj + m.PtrArray(int64(h.tableCap)) + int64(n)*entry,
		Used: obj + m.PtrArray(int64(n)) + int64(n)*entry,
	}
	if n > 0 {
		f.Core = m.AlignUp(m.ArrayHeader + 2*int64(n)*m.Pointer)
	}
	return f
}

// arrayMap stores interleaved key/value pairs in a single conceptual
// object array with linear-scan lookup — the paper's ArrayMap, the
// replacement that halves TVLA's footprint (§5.3).
type arrayMap[K comparable, V comparable] struct {
	keys []K
	vals []V
	capV int
}

const defaultArrayMapCap = 4

func newArrayMap[K comparable, V comparable](capacity int) *arrayMap[K, V] {
	if capacity <= 0 {
		capacity = defaultArrayMapCap
	}
	return &arrayMap[K, V]{
		keys: make([]K, 0, capacity),
		vals: make([]V, 0, capacity),
		capV: capacity,
	}
}

func (a *arrayMap[K, V]) kind() spec.Kind { return spec.KindArrayMap }
func (a *arrayMap[K, V]) size() int       { return len(a.keys) }
func (a *arrayMap[K, V]) capacity() int   { return a.capV }

func (a *arrayMap[K, V]) indexOf(k K) int {
	for i, x := range a.keys {
		if x == k {
			return i
		}
	}
	return -1
}

func (a *arrayMap[K, V]) put(k K, v V) (V, bool) {
	if i := a.indexOf(k); i >= 0 {
		old := a.vals[i]
		a.vals[i] = v
		return old, true
	}
	for a.capV < len(a.keys)+1 {
		a.capV = growCap(a.capV)
	}
	a.keys = append(a.keys, k)
	a.vals = append(a.vals, v)
	var zero V
	return zero, false
}

func (a *arrayMap[K, V]) get(k K) (V, bool) {
	if i := a.indexOf(k); i >= 0 {
		return a.vals[i], true
	}
	var zero V
	return zero, false
}

func (a *arrayMap[K, V]) removeKey(k K) (V, bool) {
	i := a.indexOf(k)
	if i < 0 {
		var zero V
		return zero, false
	}
	old := a.vals[i]
	copy(a.keys[i:], a.keys[i+1:])
	copy(a.vals[i:], a.vals[i+1:])
	a.keys = a.keys[:len(a.keys)-1]
	a.vals = a.vals[:len(a.vals)-1]
	return old, true
}

func (a *arrayMap[K, V]) containsKey(k K) bool { return a.indexOf(k) >= 0 }

func (a *arrayMap[K, V]) containsValue(v V) bool {
	for _, x := range a.vals {
		if x == v {
			return true
		}
	}
	return false
}

func (a *arrayMap[K, V]) clear() {
	a.keys = a.keys[:0]
	a.vals = a.vals[:0]
}

func (a *arrayMap[K, V]) each(f func(K, V) bool) {
	for i, k := range a.keys {
		if !f(k, a.vals[i]) {
			return
		}
	}
}

func (a *arrayMap[K, V]) foot(m heap.SizeModel) heap.Footprint {
	obj := m.ObjectFields(1, 1) // pair-array ref + size
	n := int64(len(a.keys))
	f := heap.Footprint{
		Live: obj + m.PtrArray(2*int64(a.capV)),
		Used: obj + m.PtrArray(2*n),
	}
	if n > 0 {
		f.Core = m.PtrArray(2 * n)
	}
	return f
}

// lazyMap allocates its backing hash map on first update — the fix for
// contexts where a large percentage of maps remain empty (FindBugs, §5.3).
type lazyMap[K comparable, V comparable] struct {
	inner      *hashMap[K, V]
	initialCap int
}

func newLazyMap[K comparable, V comparable](capacity int) *lazyMap[K, V] {
	return &lazyMap[K, V]{initialCap: capacity}
}

func (l *lazyMap[K, V]) kind() spec.Kind { return spec.KindLazyMap }

func (l *lazyMap[K, V]) size() int {
	if l.inner == nil {
		return 0
	}
	return l.inner.size()
}

func (l *lazyMap[K, V]) capacity() int {
	if l.inner == nil {
		return 0
	}
	return l.inner.capacity()
}

func (l *lazyMap[K, V]) put(k K, v V) (V, bool) {
	if l.inner == nil {
		l.inner = newHashMap[K, V](l.initialCap, false)
	}
	return l.inner.put(k, v)
}

func (l *lazyMap[K, V]) get(k K) (V, bool) {
	if l.inner == nil {
		var zero V
		return zero, false
	}
	return l.inner.get(k)
}

func (l *lazyMap[K, V]) removeKey(k K) (V, bool) {
	if l.inner == nil {
		var zero V
		return zero, false
	}
	return l.inner.removeKey(k)
}

func (l *lazyMap[K, V]) containsKey(k K) bool {
	return l.inner != nil && l.inner.containsKey(k)
}

func (l *lazyMap[K, V]) containsValue(v V) bool {
	return l.inner != nil && l.inner.containsValue(v)
}

func (l *lazyMap[K, V]) clear() {
	if l.inner != nil {
		l.inner.clear()
	}
}

func (l *lazyMap[K, V]) each(f func(K, V) bool) {
	if l.inner != nil {
		l.inner.each(f)
	}
}

func (l *lazyMap[K, V]) foot(m heap.SizeModel) heap.Footprint {
	if l.inner == nil {
		obj := m.ObjectFields(1, 1)
		return heap.Footprint{Live: obj, Used: obj}
	}
	return l.inner.foot(m)
}

// singletonMap stores at most one entry in instance fields and upgrades to
// an arrayMap when a second key arrives.
type singletonMap[K comparable, V comparable] struct {
	key      K
	val      V
	has      bool
	promoted *arrayMap[K, V]
}

func newSingletonMap[K comparable, V comparable]() *singletonMap[K, V] {
	return &singletonMap[K, V]{}
}

func (s *singletonMap[K, V]) kind() spec.Kind {
	if s.promoted != nil {
		return spec.KindArrayMap
	}
	return spec.KindSingletonMap
}

func (s *singletonMap[K, V]) size() int {
	if s.promoted != nil {
		return s.promoted.size()
	}
	if s.has {
		return 1
	}
	return 0
}

func (s *singletonMap[K, V]) capacity() int {
	if s.promoted != nil {
		return s.promoted.capacity()
	}
	return 1
}

func (s *singletonMap[K, V]) promote() *arrayMap[K, V] {
	if s.promoted == nil {
		s.promoted = newArrayMap[K, V](defaultArrayMapCap)
		if s.has {
			s.promoted.put(s.key, s.val)
			s.has = false
			var zk K
			var zv V
			s.key, s.val = zk, zv
		}
	}
	return s.promoted
}

func (s *singletonMap[K, V]) put(k K, v V) (V, bool) {
	if s.promoted != nil {
		return s.promoted.put(k, v)
	}
	if !s.has {
		s.key, s.val, s.has = k, v, true
		var zero V
		return zero, false
	}
	if s.key == k {
		old := s.val
		s.val = v
		return old, true
	}
	return s.promote().put(k, v)
}

func (s *singletonMap[K, V]) get(k K) (V, bool) {
	if s.promoted != nil {
		return s.promoted.get(k)
	}
	if s.has && s.key == k {
		return s.val, true
	}
	var zero V
	return zero, false
}

func (s *singletonMap[K, V]) removeKey(k K) (V, bool) {
	if s.promoted != nil {
		return s.promoted.removeKey(k)
	}
	if s.has && s.key == k {
		old := s.val
		s.has = false
		var zk K
		var zv V
		s.key, s.val = zk, zv
		return old, true
	}
	var zero V
	return zero, false
}

func (s *singletonMap[K, V]) containsKey(k K) bool {
	if s.promoted != nil {
		return s.promoted.containsKey(k)
	}
	return s.has && s.key == k
}

func (s *singletonMap[K, V]) containsValue(v V) bool {
	if s.promoted != nil {
		return s.promoted.containsValue(v)
	}
	return s.has && s.val == v
}

func (s *singletonMap[K, V]) clear() {
	if s.promoted != nil {
		s.promoted.clear()
		return
	}
	s.has = false
	var zk K
	var zv V
	s.key, s.val = zk, zv
}

func (s *singletonMap[K, V]) each(f func(K, V) bool) {
	if s.promoted != nil {
		s.promoted.each(f)
		return
	}
	if s.has {
		f(s.key, s.val)
	}
}

func (s *singletonMap[K, V]) foot(m heap.SizeModel) heap.Footprint {
	if s.promoted != nil {
		return s.promoted.foot(m)
	}
	obj := m.ObjectFields(2, 0) // key ref + value ref
	f := heap.Footprint{Live: obj, Used: obj}
	if s.has {
		f.Core = m.PtrArray(2)
	}
	return f
}

// sizeAdaptingMap is the §2.3 hybrid for maps: it starts as an arrayMap
// and converts to a hashMap when the size crosses the threshold. The
// conversion threshold is the parameter swept in the §2.3 experiment.
type sizeAdaptingMap[K comparable, V comparable] struct {
	inner     mapImpl[K, V]
	threshold int
}

func newSizeAdaptingMap[K comparable, V comparable](capacity, threshold int) *sizeAdaptingMap[K, V] {
	if threshold <= 0 {
		threshold = DefaultAdaptThreshold
	}
	if capacity <= 0 || capacity > threshold {
		capacity = min(defaultArrayMapCap, threshold)
	}
	return &sizeAdaptingMap[K, V]{inner: newArrayMap[K, V](capacity), threshold: threshold}
}

func (s *sizeAdaptingMap[K, V]) kind() spec.Kind { return spec.KindSizeAdaptingMap }
func (s *sizeAdaptingMap[K, V]) size() int       { return s.inner.size() }
func (s *sizeAdaptingMap[K, V]) capacity() int   { return s.inner.capacity() }

func (s *sizeAdaptingMap[K, V]) put(k K, v V) (V, bool) {
	old, replaced := s.inner.put(k, v)
	if !replaced && s.inner.kind() == spec.KindArrayMap && s.inner.size() > s.threshold {
		hm := newHashMap[K, V](s.inner.size(), false)
		s.inner.each(func(k K, v V) bool {
			hm.put(k, v)
			return true
		})
		s.inner = hm
	}
	return old, replaced
}

func (s *sizeAdaptingMap[K, V]) get(k K) (V, bool)       { return s.inner.get(k) }
func (s *sizeAdaptingMap[K, V]) removeKey(k K) (V, bool) { return s.inner.removeKey(k) }
func (s *sizeAdaptingMap[K, V]) containsKey(k K) bool    { return s.inner.containsKey(k) }
func (s *sizeAdaptingMap[K, V]) containsValue(v V) bool  { return s.inner.containsValue(v) }

func (s *sizeAdaptingMap[K, V]) clear() {
	// Clearing returns to the compact representation, in place when the
	// store already is one.
	c := min(defaultArrayMapCap, s.threshold)
	if a, ok := s.inner.(*arrayMap[K, V]); ok {
		a.clear()
		a.capV = c
		return
	}
	s.inner = newArrayMap[K, V](c)
}

func (s *sizeAdaptingMap[K, V]) each(f func(K, V) bool) { s.inner.each(f) }

func (s *sizeAdaptingMap[K, V]) foot(m heap.SizeModel) heap.Footprint {
	adapter := m.ObjectFields(1, 1)
	f := s.inner.foot(m)
	f.Live += adapter
	f.Used += adapter
	return f
}

// newMapImpl constructs a map backing implementation by kind.
func newMapImpl[K comparable, V comparable](k spec.Kind, capacity, threshold int) mapImpl[K, V] {
	switch k {
	case spec.KindHashMap, spec.KindMap, spec.KindCollection, spec.KindNone:
		return newHashMap[K, V](capacity, false)
	case spec.KindLinkedHashMap:
		return newHashMap[K, V](capacity, true)
	case spec.KindOpenHashMap:
		return newOpenHashMap[K, V](capacity)
	case spec.KindArrayMap:
		return newArrayMap[K, V](capacity)
	case spec.KindLazyMap:
		return newLazyMap[K, V](capacity)
	case spec.KindSingletonMap:
		return newSingletonMap[K, V]()
	case spec.KindSizeAdaptingMap:
		return newSizeAdaptingMap[K, V](capacity, threshold)
	default:
		panic(fmt.Sprintf("collections: %v is not a map implementation", k))
	}
}
