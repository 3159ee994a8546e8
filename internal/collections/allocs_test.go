package collections

import "testing"

// Parsing a constructor's options allocates nothing: a fixed list costs
// its wrapper, its store and the store's array, with or without options.
func TestOptionParsingAllocatesNothing(t *testing.T) {
	for name, mk := range map[string]func(){
		"no options": func() { _ = NewFixedArrayList[int](nil) },
		"Cap(4)":     func() { _ = NewFixedArrayList[int](nil, Cap(4)) },
	} {
		if n := testing.AllocsPerRun(100, mk); n != 3 {
			t.Errorf("NewFixedArrayList with %s: %v allocations, want 3", name, n)
		}
	}
}

// Clearing a hashed or size-adapting collection reuses its store, so a
// collection filled and cleared over and over allocates nothing.
func TestClearReusesStore(t *testing.T) {
	hs := NewHashSet[int](nil)
	hm := NewHashMap[int, int](nil)
	ss := NewSizeAdaptingSet[int](nil)
	sm := NewSizeAdaptingMap[int, int](nil)
	for name, cycle := range map[string]func(){
		"HashSet":         func() { hs.Add(1); hs.Clear() },
		"HashMap":         func() { hm.Put(1, 1); hm.Clear() },
		"SizeAdaptingSet": func() { ss.Add(1); ss.Clear() },
		"SizeAdaptingMap": func() { sm.Put(1, 1); sm.Clear() },
	} {
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("%s: %v allocations per fill-and-clear, want 0", name, n)
		}
	}
}
