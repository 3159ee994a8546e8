package collections

import (
	"chameleon/internal/alloctx"
	"chameleon/internal/heap"
	"chameleon/internal/spec"
)

// List is the wrapper type for list collections (paper §4.1): a small
// object holding a reference to the selected backing implementation.
// Clients always declare *List[T]; which implementation backs it is decided
// per allocation context and can be changed without touching client code.
type List[T comparable] struct {
	base
	impl     listImpl[T]
	declared spec.Kind
}

var _ heap.Collection = (*List[int])(nil)

func newList[T comparable](rt *Runtime, ctx *alloctx.Context, declared spec.Kind, o *allocOpts) *List[T] {
	dec := rt.decide(ctx, declared, o)
	l := &List[T]{declared: declared}
	if dec.Impl == spec.KindIntArray {
		// IntArray is only constructible through NewIntArrayList; fall
		// back to the declared kind for other element types.
		dec.Impl = declared
	}
	l.impl = newListImpl[T](dec.Impl, dec.Capacity)
	rt.install(&l.base, l, ctx, declared, dec)
	return l
}

// NewArrayList allocates a list declared as an ArrayList.
func NewArrayList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	var o allocOpts
	for _, opt := range opts {
		opt(&o)
	}
	return newList[T](rt, rt.resolveContext(&o), spec.KindArrayList, &o)
}

// NewLinkedList allocates a list declared as a LinkedList.
func NewLinkedList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	var o allocOpts
	for _, opt := range opts {
		opt(&o)
	}
	return newList[T](rt, rt.resolveContext(&o), spec.KindLinkedList, &o)
}

// NewSinglyLinkedList allocates a list declared as a SinglyLinkedList —
// the §5.4 "partial interface" implementation usable when the client never
// traverses backwards.
func NewSinglyLinkedList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	var o allocOpts
	for _, opt := range opts {
		opt(&o)
	}
	return newList[T](rt, rt.resolveContext(&o), spec.KindSinglyLinkedList, &o)
}

// NewEmptyList allocates an immutable, always-empty list (the EMPTY_LIST
// idiom); mutations panic.
func NewEmptyList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	var o allocOpts
	for _, opt := range opts {
		opt(&o)
	}
	return newList[T](rt, rt.resolveContext(&o), spec.KindEmptyList, &o)
}

// NewLazyArrayList allocates a list declared as a LazyArrayList.
func NewLazyArrayList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	var o allocOpts
	for _, opt := range opts {
		opt(&o)
	}
	return newList[T](rt, rt.resolveContext(&o), spec.KindLazyArrayList, &o)
}

// NewSingletonList allocates a list declared as a SingletonList.
func NewSingletonList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	var o allocOpts
	for _, opt := range opts {
		opt(&o)
	}
	return newList[T](rt, rt.resolveContext(&o), spec.KindSingletonList, &o)
}

// NewCowArrayList allocates a list declared as a CowArrayList — the
// concurrent copy-on-write list for read-mostly contexts shared across
// goroutines.
func NewCowArrayList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	var o allocOpts
	for _, opt := range opts {
		opt(&o)
	}
	return newList[T](rt, rt.resolveContext(&o), spec.KindCowArrayList, &o)
}

// NewIntArrayList allocates a List[int] backed by an unboxed int array.
// The decision is routed through decide like every other constructor, so
// capacity rules and selector policy observe IntArray sites too — but the
// implementation stays pinned: IntArray is the one backing no selector may
// swap away (unboxed int storage is the point of the constructor).
func NewIntArrayList(rt *Runtime, opts ...Option) *List[int] {
	var o allocOpts
	for _, opt := range opts {
		opt(&o)
	}
	ctx := rt.resolveContext(&o)
	dec := rt.decide(ctx, spec.KindIntArray, &o)
	dec.Impl = spec.KindIntArray
	l := &List[int]{declared: spec.KindIntArray, impl: newIntArrayList(dec.Capacity)}
	rt.install(&l.base, l, ctx, spec.KindIntArray, dec)
	return l
}

// NewListFrom allocates a copy of src (the copy-constructor idiom); src is
// recorded as having been copied.
func NewListFrom[T comparable](rt *Runtime, src *List[T], opts ...Option) *List[T] {
	var o allocOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.capacity == 0 {
		// src.impl.size(), not src.Size(): sizing the copy is not a client
		// read of src, and must not record a spurious Size on its profile —
		// the copy itself is the one Copied recorded below.
		o.capacity = src.impl.size()
	}
	l := newList[T](rt, rt.resolveContext(&o), src.declared, &o)
	src.recordRead(spec.Copied)
	src.impl.each(func(v T) bool {
		l.impl.add(v)
		return true
	})
	l.afterMutate(spec.AddAll, l.impl.size())
	return l
}

// HeapFootprint implements heap.Collection: the backing implementation's
// footprint plus the wrapper object itself (the §4.1 indirection cost,
// charged to both live and used since no implementation choice removes it).
func (l *List[T]) HeapFootprint() heap.Footprint {
	f := l.impl.foot(l.rt.Model())
	w := l.rt.Model().ObjectFields(1, 0)
	f.Live += w
	f.Used += w
	return f
}

// ContextKey implements heap.Collection.
func (l *List[T]) ContextKey() uint64 { return l.ctxKey }

// KindName implements heap.Collection; it reflects the current backing
// implementation (which internal adaptation may have changed).
func (l *List[T]) KindName() string { return l.impl.kind().String() }

// Kind reports the current backing implementation kind.
func (l *List[T]) Kind() spec.Kind { return l.impl.kind() }

// Declared reports the kind the program declared at the allocation site.
func (l *List[T]) Declared() spec.Kind { return l.declared }

// Free releases the list: its heap space is reclaimed and its usage record
// is folded into its allocation context.
func (l *List[T]) Free() { l.free() }

// Add appends v.
func (l *List[T]) Add(v T) {
	l.impl.add(v)
	l.afterMutate(spec.Add, l.impl.size())
}

// AddAt inserts v at index i.
func (l *List[T]) AddAt(i int, v T) {
	l.impl.addAt(i, v)
	l.afterMutate(spec.AddAt, l.impl.size())
}

// AddAll appends every element of src, recording the copy interaction on
// both sides (§3.2.2).
func (l *List[T]) AddAll(src *List[T]) {
	src.recordRead(spec.Copied)
	src.impl.each(func(v T) bool {
		l.impl.add(v)
		return true
	})
	l.afterMutate(spec.AddAll, l.impl.size())
}

// AddAllAt inserts every element of src starting at index i.
func (l *List[T]) AddAllAt(i int, src *List[T]) {
	src.recordRead(spec.Copied)
	src.impl.each(func(v T) bool {
		l.impl.addAt(i, v)
		i++
		return true
	})
	l.afterMutate(spec.AddAllAt, l.impl.size())
}

// Get returns the element at index i (the profiled "#get(int)" operation).
func (l *List[T]) Get(i int) T {
	l.recordRead(spec.GetIndex)
	return l.impl.get(i)
}

// Set replaces the element at index i, returning the previous value.
func (l *List[T]) Set(i int, v T) T {
	old := l.impl.set(i, v)
	l.afterMutate(spec.SetAt, l.impl.size())
	return old
}

// RemoveAt removes and returns the element at index i.
func (l *List[T]) RemoveAt(i int) T {
	old := l.impl.removeAt(i)
	l.afterMutate(spec.RemoveAt, l.impl.size())
	return old
}

// RemoveFirst removes and returns the head element; ok is false when empty.
func (l *List[T]) RemoveFirst() (v T, ok bool) {
	if l.impl.size() == 0 {
		l.recordRead(spec.RemoveFirst)
		return v, false
	}
	v = l.impl.removeAt(0)
	l.afterMutate(spec.RemoveFirst, l.impl.size())
	return v, true
}

// Remove removes the first occurrence of v, reporting whether it was found.
func (l *List[T]) Remove(v T) bool {
	ok := l.impl.remove(v)
	l.afterMutate(spec.Remove, l.impl.size())
	return ok
}

// ContainsAll reports whether every element of src occurs in the list.
func (l *List[T]) ContainsAll(src *List[T]) bool {
	l.recordRead(spec.ContainsAll)
	src.recordRead(spec.Copied)
	all := true
	src.impl.each(func(v T) bool {
		if l.impl.indexOf(v) < 0 {
			all = false
			return false
		}
		return true
	})
	return all
}

// RemoveAll deletes every occurrence of every element of src, reporting
// whether the list changed.
func (l *List[T]) RemoveAll(src *List[T]) bool {
	src.recordRead(spec.Copied)
	changed := false
	src.impl.each(func(v T) bool {
		for l.impl.remove(v) {
			changed = true
		}
		return true
	})
	l.afterMutate(spec.RemoveAll, l.impl.size())
	return changed
}

// RetainAll keeps only elements that occur in src, reporting whether the
// list changed.
func (l *List[T]) RetainAll(src *List[T]) bool {
	src.recordRead(spec.Copied)
	changed := false
	for i := l.impl.size() - 1; i >= 0; i-- {
		if src.impl.indexOf(l.impl.get(i)) < 0 {
			l.impl.removeAt(i)
			changed = true
		}
	}
	l.afterMutate(spec.RetainAll, l.impl.size())
	return changed
}

// Contains reports whether v occurs in the list.
func (l *List[T]) Contains(v T) bool {
	l.recordRead(spec.Contains)
	return l.impl.indexOf(v) >= 0
}

// IndexOf reports the index of the first occurrence of v, or -1.
func (l *List[T]) IndexOf(v T) int {
	l.recordRead(spec.IndexOf)
	return l.impl.indexOf(v)
}

// Size reports the number of elements.
func (l *List[T]) Size() int {
	l.recordRead(spec.Size)
	return l.impl.size()
}

// IsEmpty reports whether the list has no elements.
func (l *List[T]) IsEmpty() bool {
	l.recordRead(spec.IsEmpty)
	return l.impl.size() == 0
}

// Capacity reports the backing implementation's current capacity.
func (l *List[T]) Capacity() int { return l.impl.capacity() }

// Clear removes all elements.
func (l *List[T]) Clear() {
	l.impl.clear()
	l.afterMutate(spec.Clear, 0)
}

// Iterator returns an iterator over a snapshot of the elements.
func (l *List[T]) Iterator() *Iterator[T] {
	n := l.impl.size()
	l.noteIterator(n)
	items := make([]T, 0, n)
	l.impl.each(func(v T) bool {
		items = append(items, v)
		return true
	})
	return newIterator(items)
}

// ListIterator returns a bidirectional iterator over a snapshot of the
// elements, positioned before the first element. Its availability on the
// List interface is exactly what precludes singly-linked implementations
// (§5.4); calling it is profiled separately from Iterator so the
// SinglyLinkedList rule can prove it unused in a context.
func (l *List[T]) ListIterator() *ListIterator[T] {
	n := l.impl.size()
	l.noteListIterator(n)
	items := make([]T, 0, n)
	l.impl.each(func(v T) bool {
		items = append(items, v)
		return true
	})
	return &ListIterator[T]{items: items}
}

// Each calls f for every element until f returns false. Unlike Iterator it
// allocates nothing and is not a profiled operation (it is the library's
// internal traversal, exposed for tests and reporting).
func (l *List[T]) Each(f func(T) bool) { l.impl.each(f) }

// ToSlice copies the elements into a new slice.
func (l *List[T]) ToSlice() []T {
	out := make([]T, 0, l.impl.size())
	l.impl.each(func(v T) bool {
		out = append(out, v)
		return true
	})
	return out
}
