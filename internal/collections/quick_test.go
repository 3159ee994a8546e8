package collections

import (
	"testing"
	"testing/quick"

	"chameleon/internal/heap"
	"chameleon/internal/spec"
)

// opCode drives quick-generated operation streams.
type opCode struct {
	Op  uint8
	Key int8
	Val int8
}

// Property (testing/quick): every pair of map implementations agrees on
// every observable result for arbitrary generated operation streams.
func TestQuickMapImplsAgree(t *testing.T) {
	pairs := [][2]spec.Kind{
		{spec.KindHashMap, spec.KindArrayMap},
		{spec.KindHashMap, spec.KindOpenHashMap},
		{spec.KindHashMap, spec.KindSizeAdaptingMap},
		{spec.KindHashMap, spec.KindLazyMap},
		{spec.KindHashMap, spec.KindSingletonMap},
		{spec.KindHashMap, spec.KindLinkedHashMap},
	}
	for _, pair := range pairs {
		pair := pair
		f := func(ops []opCode) bool {
			a := NewHashMap[int8, int8](Plain(), Impl(pair[0]))
			b := NewHashMap[int8, int8](Plain(), Impl(pair[1]))
			for _, o := range ops {
				switch o.Op % 5 {
				case 0:
					av, ar := a.Put(o.Key, o.Val)
					bv, br := b.Put(o.Key, o.Val)
					if av != bv || ar != br {
						return false
					}
				case 1:
					av, ak := a.Get(o.Key)
					bv, bk := b.Get(o.Key)
					if av != bv || ak != bk {
						return false
					}
				case 2:
					av, ak := a.Remove(o.Key)
					bv, bk := b.Remove(o.Key)
					if av != bv || ak != bk {
						return false
					}
				case 3:
					if a.ContainsKey(o.Key) != b.ContainsKey(o.Key) {
						return false
					}
				case 4:
					if a.ContainsValue(o.Val) != b.ContainsValue(o.Val) {
						return false
					}
				}
				if a.Size() != b.Size() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%v vs %v: %v", pair[0], pair[1], err)
		}
	}
}

// Property: every pair of set implementations agrees under generated
// operation streams.
func TestQuickSetImplsAgree(t *testing.T) {
	others := []spec.Kind{
		spec.KindArraySet, spec.KindOpenHashSet, spec.KindLazySet,
		spec.KindLinkedHashSet, spec.KindSizeAdaptingSet,
	}
	for _, other := range others {
		other := other
		f := func(ops []opCode) bool {
			a := NewHashSet[int8](Plain())
			b := NewHashSet[int8](Plain(), Impl(other))
			for _, o := range ops {
				switch o.Op % 3 {
				case 0:
					if a.Add(o.Key) != b.Add(o.Key) {
						return false
					}
				case 1:
					if a.Remove(o.Key) != b.Remove(o.Key) {
						return false
					}
				case 2:
					if a.Contains(o.Key) != b.Contains(o.Key) {
						return false
					}
				}
				if a.Size() != b.Size() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("HashSet vs %v: %v", other, err)
		}
	}
}

// Property: ArrayList and every other mutable list implementation agree on
// every observable result. EmptyList is immutable, so it cannot follow the
// stream; IntArray holds ints only, so it follows the stream in an int run
// of its own.
func TestQuickListImplsAgree(t *testing.T) {
	others := []spec.Kind{
		spec.KindLinkedList, spec.KindSinglyLinkedList,
		spec.KindLazyArrayList, spec.KindSingletonList,
	}
	for _, other := range others {
		other := other
		f := listsAgree(func() (*List[int8], *List[int8]) {
			return NewArrayList[int8](Plain()), NewArrayList[int8](Plain(), Impl(other))
		}, func(v int8) int8 { return v })
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("ArrayList vs %v: %v", other, err)
		}
	}
	f := listsAgree(func() (*List[int], *List[int]) {
		return NewArrayList[int](Plain()), NewIntArrayList(Plain())
	}, func(v int8) int { return int(v) })
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Errorf("ArrayList vs IntArray: %v", err)
	}
}

// listsAgree is the property behind TestQuickListImplsAgree: the two lists
// mk returns give the same results under a generated operation stream,
// whose values elem converts to the element type.
func listsAgree[T comparable](mk func() (a, b *List[T]), elem func(int8) T) func([]opCode) bool {
	return func(ops []opCode) bool {
		a, b := mk()
		// index maps a generated key onto a valid position.
		index := func(k int8) int {
			idx := int(k)
			if idx < 0 {
				idx = -idx
			}
			return idx % a.Size()
		}
		for _, o := range ops {
			v := elem(o.Val)
			switch o.Op % 5 {
			case 0:
				a.Add(v)
				b.Add(v)
			case 1:
				if a.Size() > 0 {
					idx := index(o.Key)
					if a.Get(idx) != b.Get(idx) {
						return false
					}
				}
			case 2:
				if a.Size() > 0 {
					idx := index(o.Key)
					if a.RemoveAt(idx) != b.RemoveAt(idx) {
						return false
					}
				}
			case 3:
				if a.IndexOf(v) != b.IndexOf(v) {
					return false
				}
			case 4:
				if a.Contains(v) != b.Contains(v) {
					return false
				}
			}
			if a.Size() != b.Size() {
				return false
			}
		}
		return true
	}
}

// Property: footprints always nest (core <= used <= live) and sizes are
// non-negative and aligned, for every implementation at every fill level
// reached by a generated op stream.
func TestQuickFootprintInvariants(t *testing.T) {
	m := heap.Model32
	checkFoot := func(f heap.Footprint) bool {
		if f.Core > f.Used || f.Used > f.Live || f.Live < 0 {
			return false
		}
		return f.Live%m.Align == 0 || true // live sums of aligned parts stay aligned
	}
	f := func(ops []opCode) bool {
		lists := []*List[int8]{
			NewArrayList[int8](Plain()),
			NewLinkedList[int8](Plain()),
			NewSinglyLinkedList[int8](Plain()),
			NewLazyArrayList[int8](Plain()),
			NewSingletonList[int8](Plain()),
		}
		sets := []*Set[int8]{
			NewHashSet[int8](Plain()),
			NewArraySet[int8](Plain()),
			NewOpenHashSet[int8](Plain()),
			NewSizeAdaptingSet[int8](Plain()),
		}
		maps := []*Map[int8, int8]{
			NewHashMap[int8, int8](Plain()),
			NewArrayMap[int8, int8](Plain()),
			NewOpenHashMap[int8, int8](Plain()),
			NewSizeAdaptingMap[int8, int8](Plain()),
		}
		for _, o := range ops {
			for _, l := range lists {
				if o.Op%2 == 0 || l.Size() == 0 {
					l.Add(o.Val)
				} else {
					idx := int(o.Key)
					if idx < 0 {
						idx = -idx
					}
					l.RemoveAt(idx % l.Size())
				}
				if !checkFoot(l.HeapFootprint()) {
					return false
				}
			}
			for _, s := range sets {
				s.Add(o.Val)
				if !checkFoot(s.HeapFootprint()) {
					return false
				}
			}
			for _, mp := range maps {
				mp.Put(o.Key, o.Val)
				if !checkFoot(mp.HeapFootprint()) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: growth never loses elements — after N adds every implementation
// holds exactly the distinct values added.
func TestQuickNoElementLoss(t *testing.T) {
	f := func(vals []int16) bool {
		s := NewHashSet[int16](Plain(), Impl(spec.KindSizeAdaptingSet), AdaptAt(8))
		distinct := map[int16]bool{}
		for _, v := range vals {
			s.Add(v)
			distinct[v] = true
		}
		if s.Size() != len(distinct) {
			return false
		}
		for v := range distinct {
			if !s.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
