package collections

import (
	"fmt"

	"chameleon/internal/heap"
	"chameleon/internal/spec"
)

// listImpl is the internal contract every list backing implementation
// satisfies. The wrapper (List) delegates operations to it and the
// simulated GC sizes it through foot — the semantic-map half of the
// contract (paper §4.3.2).
type listImpl[T comparable] interface {
	kind() spec.Kind
	size() int
	capacity() int
	get(i int) T
	set(i int, v T) T
	add(v T)
	addAt(i int, v T)
	removeAt(i int) T
	remove(v T) bool
	indexOf(v T) int
	clear()
	each(f func(T) bool)
	foot(m heap.SizeModel) heap.Footprint
}

// growCap is the paper's §2.2 ArrayList growth function:
// newCapacity = (oldCapacity*3)/2 + 1.
func growCap(old int) int { return old*3/2 + 1 }

const defaultListCap = 10

func boundsCheck(i, n int, op string) {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("collections: %s index %d out of range [0,%d)", op, i, n))
	}
}

// arrayList is a resizable-array list, and the one array store: IntArray
// and ArraySet embed it and override only what differs. The tracked
// capacity follows the Java growth policy so the simulated footprint
// reproduces the paper's utilization arithmetic (e.g. capacity 100 -> 151
// on the 101st add, §2.2) regardless of how the Go runtime grows the
// underlying slice.
type arrayList[T comparable] struct {
	data []T
	capV int
}

// arrayStore returns an empty array store with the requested initial
// capacity (defaultListCap when none is requested).
func arrayStore[T comparable](capacity int) arrayList[T] {
	if capacity <= 0 {
		capacity = defaultListCap
	}
	return arrayList[T]{data: make([]T, 0, capacity), capV: capacity}
}

func newArrayList[T comparable](capacity int) *arrayList[T] {
	a := arrayStore[T](capacity)
	return &a
}

func (a *arrayList[T]) kind() spec.Kind { return spec.KindArrayList }
func (a *arrayList[T]) size() int       { return len(a.data) }
func (a *arrayList[T]) capacity() int   { return a.capV }

func (a *arrayList[T]) ensure(n int) {
	for a.capV < n {
		a.capV = growCap(a.capV)
	}
}

func (a *arrayList[T]) get(i int) T {
	boundsCheck(i, len(a.data), "get")
	return a.data[i]
}

func (a *arrayList[T]) set(i int, v T) T {
	boundsCheck(i, len(a.data), "set")
	old := a.data[i]
	a.data[i] = v
	return old
}

func (a *arrayList[T]) add(v T) {
	a.ensure(len(a.data) + 1)
	a.data = append(a.data, v)
}

func (a *arrayList[T]) addAt(i int, v T) {
	if i == len(a.data) {
		a.add(v)
		return
	}
	boundsCheck(i, len(a.data), "addAt")
	a.ensure(len(a.data) + 1)
	var zero T
	a.data = append(a.data, zero)
	copy(a.data[i+1:], a.data[i:])
	a.data[i] = v
}

func (a *arrayList[T]) removeAt(i int) T {
	boundsCheck(i, len(a.data), "removeAt")
	old := a.data[i]
	copy(a.data[i:], a.data[i+1:])
	a.data = a.data[:len(a.data)-1]
	return old
}

func (a *arrayList[T]) remove(v T) bool {
	if i := a.indexOf(v); i >= 0 {
		a.removeAt(i)
		return true
	}
	return false
}

func (a *arrayList[T]) indexOf(v T) int {
	for i, x := range a.data {
		if x == v {
			return i
		}
	}
	return -1
}

func (a *arrayList[T]) clear() { a.data = a.data[:0] }

func (a *arrayList[T]) each(f func(T) bool) {
	for _, v := range a.data {
		if !f(v) {
			return
		}
	}
}

func (a *arrayList[T]) foot(m heap.SizeModel) heap.Footprint {
	n := len(a.data)
	obj := m.ObjectFields(1, 2) // array ref + size + modCount
	return arrayFoot(obj, m.PtrArray(int64(a.capV)), m.PtrArray(int64(n)), n)
}

// arrayFoot is an array store's footprint: its object, and an array of
// capBytes of which usedBytes hold the n elements.
func arrayFoot(obj, capBytes, usedBytes int64, n int) heap.Footprint {
	f := heap.Footprint{Live: obj + capBytes, Used: obj + usedBytes}
	if n > 0 {
		f.Core = usedBytes
	}
	return f
}

// llNode is a doubly-linked-list entry: an object with three reference
// fields (element, next, prev), 24 bytes under the 32-bit model (§2.2).
type llNode[T comparable] struct {
	v          T
	next, prev *llNode[T]
}

// linkedList is a doubly-linked list with a sentinel head entry, mirroring
// the LinkedList implementation whose empty instances still carry a
// LinkedList$Entry header object (the bloat pathology, §5.3).
type linkedList[T comparable] struct {
	head llNode[T] // sentinel
	n    int
}

func newLinkedList[T comparable]() *linkedList[T] {
	l := &linkedList[T]{}
	l.head.next = &l.head
	l.head.prev = &l.head
	return l
}

func (l *linkedList[T]) kind() spec.Kind { return spec.KindLinkedList }
func (l *linkedList[T]) size() int       { return l.n }
func (l *linkedList[T]) capacity() int   { return l.n }

func (l *linkedList[T]) nodeAt(i int) *llNode[T] {
	boundsCheck(i, l.n, "index")
	// Walk from whichever end is closer, like java.util.LinkedList.
	if i < l.n/2 {
		p := l.head.next
		for ; i > 0; i-- {
			p = p.next
		}
		return p
	}
	p := l.head.prev
	for k := l.n - 1; k > i; k-- {
		p = p.prev
	}
	return p
}

func (l *linkedList[T]) get(i int) T { return l.nodeAt(i).v }

func (l *linkedList[T]) set(i int, v T) T {
	p := l.nodeAt(i)
	old := p.v
	p.v = v
	return old
}

func (l *linkedList[T]) insertBefore(at *llNode[T], v T) {
	node := &llNode[T]{v: v, next: at, prev: at.prev}
	at.prev.next = node
	at.prev = node
	l.n++
}

func (l *linkedList[T]) add(v T) { l.insertBefore(&l.head, v) }

func (l *linkedList[T]) addAt(i int, v T) {
	if i == l.n {
		l.add(v)
		return
	}
	l.insertBefore(l.nodeAt(i), v)
}

func (l *linkedList[T]) unlink(p *llNode[T]) T {
	p.prev.next = p.next
	p.next.prev = p.prev
	l.n--
	return p.v
}

func (l *linkedList[T]) removeAt(i int) T { return l.unlink(l.nodeAt(i)) }

func (l *linkedList[T]) remove(v T) bool {
	for p := l.head.next; p != &l.head; p = p.next {
		if p.v == v {
			l.unlink(p)
			return true
		}
	}
	return false
}

func (l *linkedList[T]) indexOf(v T) int {
	i := 0
	for p := l.head.next; p != &l.head; p = p.next {
		if p.v == v {
			return i
		}
		i++
	}
	return -1
}

func (l *linkedList[T]) clear() {
	l.head.next = &l.head
	l.head.prev = &l.head
	l.n = 0
}

func (l *linkedList[T]) each(f func(T) bool) {
	for p := l.head.next; p != &l.head; p = p.next {
		if !f(p.v) {
			return
		}
	}
}

func (l *linkedList[T]) foot(m heap.SizeModel) heap.Footprint {
	obj := m.ObjectFields(2, 1)   // head ref, tail ref (folded into sentinel), size
	entry := m.ObjectFields(3, 0) // element, next, prev: 24 bytes on Model32
	f := heap.Footprint{
		Live: obj + int64(l.n+1)*entry, // +1: the sentinel entry of an (even empty) list
		Used: obj + int64(l.n)*entry,
	}
	if l.n > 0 {
		f.Core = m.PtrArray(int64(l.n))
	}
	return f
}

// lazyArrayList defers allocating its internal array until the first
// update (paper §4.2: "LazyArrayList - allocate internal array on first
// update"). Until then an instance costs only its object header.
type lazyArrayList[T comparable] struct {
	inner      *arrayList[T]
	initialCap int
}

func newLazyArrayList[T comparable](capacity int) *lazyArrayList[T] {
	return &lazyArrayList[T]{initialCap: capacity}
}

func (l *lazyArrayList[T]) materialize() *arrayList[T] {
	if l.inner == nil {
		l.inner = newArrayList[T](l.initialCap)
	}
	return l.inner
}

func (l *lazyArrayList[T]) kind() spec.Kind { return spec.KindLazyArrayList }

func (l *lazyArrayList[T]) size() int {
	if l.inner == nil {
		return 0
	}
	return l.inner.size()
}

func (l *lazyArrayList[T]) capacity() int {
	if l.inner == nil {
		return 0
	}
	return l.inner.capacity()
}

func (l *lazyArrayList[T]) get(i int) T {
	boundsCheck(i, l.size(), "get")
	return l.inner.get(i)
}

func (l *lazyArrayList[T]) set(i int, v T) T {
	boundsCheck(i, l.size(), "set")
	return l.inner.set(i, v)
}

func (l *lazyArrayList[T]) add(v T)          { l.materialize().add(v) }
func (l *lazyArrayList[T]) addAt(i int, v T) { l.materialize().addAt(i, v) }

func (l *lazyArrayList[T]) removeAt(i int) T {
	boundsCheck(i, l.size(), "removeAt")
	return l.inner.removeAt(i)
}

func (l *lazyArrayList[T]) remove(v T) bool {
	if l.inner == nil {
		return false
	}
	return l.inner.remove(v)
}

func (l *lazyArrayList[T]) indexOf(v T) int {
	if l.inner == nil {
		return -1
	}
	return l.inner.indexOf(v)
}

func (l *lazyArrayList[T]) clear() {
	if l.inner != nil {
		l.inner.clear()
	}
}

func (l *lazyArrayList[T]) each(f func(T) bool) {
	if l.inner != nil {
		l.inner.each(f)
	}
}

func (l *lazyArrayList[T]) foot(m heap.SizeModel) heap.Footprint {
	if l.inner == nil {
		obj := m.ObjectFields(1, 1) // nil array ref + requested capacity
		return heap.Footprint{Live: obj, Used: obj}
	}
	return l.inner.foot(m)
}

// singletonList stores at most one element in an instance field. Unlike the
// paper's immutable SingletonList it transparently upgrades to an arrayList
// when a second element arrives, so a mis-selection in online mode degrades
// performance instead of breaking the program (the §3.3.2 concern).
type singletonList[T comparable] struct {
	val      T
	has      bool
	promoted *arrayList[T]
}

func newSingletonList[T comparable]() *singletonList[T] { return &singletonList[T]{} }

func (s *singletonList[T]) kind() spec.Kind {
	if s.promoted != nil {
		return spec.KindArrayList
	}
	return spec.KindSingletonList
}

func (s *singletonList[T]) size() int {
	if s.promoted != nil {
		return s.promoted.size()
	}
	if s.has {
		return 1
	}
	return 0
}

func (s *singletonList[T]) capacity() int {
	if s.promoted != nil {
		return s.promoted.capacity()
	}
	return 1
}

func (s *singletonList[T]) promote() *arrayList[T] {
	if s.promoted == nil {
		s.promoted = newArrayList[T](2)
		if s.has {
			s.promoted.add(s.val)
			s.has = false
			var zero T
			s.val = zero
		}
	}
	return s.promoted
}

func (s *singletonList[T]) get(i int) T {
	if s.promoted != nil {
		return s.promoted.get(i)
	}
	boundsCheck(i, s.size(), "get")
	return s.val
}

func (s *singletonList[T]) set(i int, v T) T {
	if s.promoted != nil {
		return s.promoted.set(i, v)
	}
	boundsCheck(i, s.size(), "set")
	old := s.val
	s.val = v
	return old
}

func (s *singletonList[T]) add(v T) {
	if s.promoted == nil && !s.has {
		s.val = v
		s.has = true
		return
	}
	s.promote().add(v)
}

func (s *singletonList[T]) addAt(i int, v T) {
	if s.promoted == nil && !s.has && i == 0 {
		s.val = v
		s.has = true
		return
	}
	if i > s.size() {
		boundsCheck(i, s.size()+1, "addAt")
	}
	s.promote().addAt(i, v)
}

func (s *singletonList[T]) removeAt(i int) T {
	if s.promoted != nil {
		return s.promoted.removeAt(i)
	}
	boundsCheck(i, s.size(), "removeAt")
	old := s.val
	s.has = false
	var zero T
	s.val = zero
	return old
}

func (s *singletonList[T]) remove(v T) bool {
	if s.promoted != nil {
		return s.promoted.remove(v)
	}
	if s.has && s.val == v {
		s.removeAt(0)
		return true
	}
	return false
}

func (s *singletonList[T]) indexOf(v T) int {
	if s.promoted != nil {
		return s.promoted.indexOf(v)
	}
	if s.has && s.val == v {
		return 0
	}
	return -1
}

func (s *singletonList[T]) clear() {
	if s.promoted != nil {
		s.promoted.clear()
		return
	}
	s.has = false
	var zero T
	s.val = zero
}

func (s *singletonList[T]) each(f func(T) bool) {
	if s.promoted != nil {
		s.promoted.each(f)
		return
	}
	if s.has {
		f(s.val)
	}
}

func (s *singletonList[T]) foot(m heap.SizeModel) heap.Footprint {
	if s.promoted != nil {
		return s.promoted.foot(m)
	}
	obj := m.ObjectFields(1, 0) // the single element reference
	f := heap.Footprint{Live: obj, Used: obj}
	if s.has {
		f.Core = m.PtrArray(1)
	}
	return f
}

// intArrayList is the IntArray implementation: the array store over
// unboxed ints, usable only for List[int]. Element storage costs m.Int per
// slot instead of a pointer plus a boxed object.
type intArrayList struct{ arrayList[int] }

func newIntArrayList(capacity int) *intArrayList {
	return &intArrayList{arrayStore[int](capacity)}
}

func (a *intArrayList) kind() spec.Kind { return spec.KindIntArray }

func (a *intArrayList) foot(m heap.SizeModel) heap.Footprint {
	n := len(a.data)
	return arrayFoot(m.ObjectFields(1, 2), m.IntArray(int64(a.capV)), m.IntArray(int64(n)), n)
}

// newListImpl constructs a list backing implementation by kind.
func newListImpl[T comparable](k spec.Kind, capacity int) listImpl[T] {
	switch k {
	case spec.KindArrayList, spec.KindList, spec.KindCollection, spec.KindNone:
		return newArrayList[T](capacity)
	case spec.KindLinkedList:
		return newLinkedList[T]()
	case spec.KindSinglyLinkedList:
		return newSinglyLinkedList[T]()
	case spec.KindEmptyList:
		return newEmptyList[T]()
	case spec.KindLazyArrayList:
		return newLazyArrayList[T](capacity)
	case spec.KindSingletonList:
		return newSingletonList[T]()
	default:
		panic(fmt.Sprintf("collections: %v is not a list implementation", k))
	}
}
