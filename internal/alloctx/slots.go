package alloctx

import (
	"iter"
	"sync"
	"sync/atomic"
)

// Slots holds one record per context, indexed by Context.Slot: the heap's
// running sums, the profiler's aggregates and the online selector's
// decision states each live in one. Slot numbers are dense and never
// reused, so finding a context's record hashes nothing. Every context
// whose record a Slots holds must come from one Table: contexts of two
// tables can share a slot number.
//
// Reading an existing record takes no lock. A record is created on its
// slot's first touch under the table's mutex, which also serializes
// doubling the array; records never move, so readers keep their pointers.
// The mutex is a leaf: init runs under it and must take no other lock that
// is held while touching the table.
type Slots[T any] struct {
	mu  sync.Mutex
	arr atomic.Pointer[[]atomic.Pointer[T]]
}

// Load returns slot i's record, or nil before its first touch.
func (s *Slots[T]) Load(i int32) *T {
	if a := s.arr.Load(); a != nil && int(i) < len(*a) {
		return (*a)[i].Load()
	}
	return nil
}

// LoadOrInit returns slot i's record. On the slot's first touch it
// allocates the record, runs init on it and publishes it, so every caller
// gets the same pointer and sees init's writes; init runs once per slot.
func (s *Slots[T]) LoadOrInit(i int32, init func(*T)) *T {
	if r := s.Load(i); r != nil {
		return r
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.arr.Load()
	if a == nil || int(i) >= len(*a) {
		grown := make([]atomic.Pointer[T], max(16, 2*int(i)))
		if a != nil {
			for j := range *a {
				grown[j].Store((*a)[j].Load())
			}
		}
		s.arr.Store(&grown)
		a = &grown
	}
	r := (*a)[i].Load()
	if r == nil {
		r = new(T)
		init(r)
		(*a)[i].Store(r)
	}
	return r
}

// All iterates the records in slot order. A record created during the
// iteration may or may not be visited.
func (s *Slots[T]) All() iter.Seq2[int32, *T] {
	return func(yield func(int32, *T) bool) {
		a := s.arr.Load()
		for i := 0; a != nil && i < len(*a); i++ {
			if r := (*a)[i].Load(); r != nil && !yield(int32(i), r) {
				return
			}
		}
	}
}
