package spec

import (
	"testing"
	"testing/quick"
)

func TestOpNamesRoundTrip(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		name := op.String()
		if name == "" {
			t.Fatalf("op %d has no name", int(op))
		}
		back, ok := OpByName(name)
		if !ok || back != op {
			t.Fatalf("OpByName(%q) = %v,%v, want %v", name, back, ok, op)
		}
	}
	if _, ok := OpByName("frobnicate"); ok {
		t.Fatalf("unknown op resolved")
	}
	if Op(99).String() != "Op(99)" {
		t.Fatalf("out-of-range op name wrong")
	}
}

func TestOpFigure4Names(t *testing.T) {
	// The rule-language spellings from paper Fig. 4 must resolve.
	for _, name := range []string{"add", "get(int)", "get(Object)", "remove", "addAll", "removeFirst", "contains", "copied", "iterator"} {
		if _, ok := OpByName(name); !ok {
			t.Errorf("Fig. 4 op %q not in vocabulary", name)
		}
	}
}

func TestAllOps(t *testing.T) {
	var counts [NumOps]int64
	if AllOps(&counts) != 0 {
		t.Fatalf("empty counts should sum to 0")
	}
	counts[Add] = 3
	counts[Copied] = 2
	if AllOps(&counts) != 5 {
		t.Fatalf("AllOps = %d, want 5 (Copied included)", AllOps(&counts))
	}
}

func TestOpApplies(t *testing.T) {
	cases := []struct {
		op   Op
		src  Kind
		want bool
	}{
		{Put, KindList, false}, // map op on a list: constant zero
		{ContainsKey, KindArrayList, false},
		{GetIndex, KindList, true},
		{GetIndex, KindHashSet, false}, // positional access on a set
		{GetIndex, KindMap, false},
		{GetKey, KindHashMap, true},
		{ListIterate, KindLinkedList, true},
		{ListIterate, KindSet, false},
		{Add, KindList, true},
		{Add, KindSet, true},
		{Add, KindMap, false},
		{Copied, KindList, true},
		{Copied, KindSet, true},
		{Copied, KindMap, true},
		{Put, KindCollection, true}, // Collection is the union
		{Add, KindIterator, false},  // iterator contexts record nothing
		{Size, KindNone, false},
	}
	for _, c := range cases {
		if got := OpApplies(c.op, c.src); got != c.want {
			t.Errorf("OpApplies(%v, %v) = %v, want %v", c.op, c.src, got, c.want)
		}
	}
	// Every operation is recordable on at least one ADT, so Collection
	// (the union) admits all of them.
	for op := Op(0); op < NumOps; op++ {
		if !OpApplies(op, KindList) && !OpApplies(op, KindSet) && !OpApplies(op, KindMap) {
			t.Errorf("op %v applies to no ADT", op)
		}
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		name := k.String()
		back, ok := KindByName(name)
		if !ok || back != k {
			t.Fatalf("KindByName(%q) = %v,%v, want %v", name, back, ok, k)
		}
	}
	if _, ok := KindByName("TreeMap"); ok {
		t.Fatalf("unknown kind resolved")
	}
	if KindNone.String() != "None" {
		t.Fatalf("KindNone name = %q", KindNone.String())
	}
	if Kind(-1).String() != "Kind(-1)" {
		t.Fatalf("out-of-range kind formatting")
	}
}

func TestAbstract(t *testing.T) {
	cases := map[Kind]Kind{
		KindArrayList:       KindList,
		KindLinkedList:      KindList,
		KindLazyArrayList:   KindList,
		KindSingletonList:   KindList,
		KindIntArray:        KindList,
		KindHashSet:         KindSet,
		KindArraySet:        KindSet,
		KindLazySet:         KindSet,
		KindLinkedHashSet:   KindSet,
		KindSizeAdaptingSet: KindSet,
		KindHashMap:         KindMap,
		KindArrayMap:        KindMap,
		KindLazyMap:         KindMap,
		KindSingletonMap:    KindMap,
		KindLinkedHashMap:   KindMap,
		KindSizeAdaptingMap: KindMap,
		KindList:            KindList,
		KindCollection:      KindCollection,
		KindIterator:        KindIterator,
		KindNone:            KindNone,
	}
	for in, want := range cases {
		if got := in.Abstract(); got != want {
			t.Errorf("%v.Abstract() = %v, want %v", in, got, want)
		}
	}
}

func TestIsAbstract(t *testing.T) {
	for _, k := range []Kind{KindCollection, KindList, KindSet, KindMap, KindIterator} {
		if !k.IsAbstract() {
			t.Errorf("%v should be abstract", k)
		}
	}
	for _, k := range []Kind{KindArrayList, KindHashMap, KindArraySet, KindNone} {
		if k.IsAbstract() {
			t.Errorf("%v should not be abstract", k)
		}
	}
}

func TestMatches(t *testing.T) {
	if !KindArrayList.Matches(KindArrayList) {
		t.Error("exact match failed")
	}
	if !KindArrayList.Matches(KindList) {
		t.Error("ArrayList should match List")
	}
	if !KindArrayList.Matches(KindCollection) {
		t.Error("ArrayList should match Collection")
	}
	if KindArrayList.Matches(KindSet) {
		t.Error("ArrayList must not match Set")
	}
	if KindIterator.Matches(KindCollection) {
		t.Error("Iterator must not match Collection")
	}
	if !KindIterator.Matches(KindIterator) {
		t.Error("Iterator should match Iterator")
	}
	if KindHashMap.Matches(KindHashSet) {
		t.Error("HashMap must not match HashSet")
	}
	if !KindSizeAdaptingMap.Matches(KindMap) {
		t.Error("SizeAdaptingMap should match Map")
	}
}

// Property: Matches is consistent with Abstract for every pair of kinds.
func TestMatchesProperty(t *testing.T) {
	kinds := Kinds()
	f := func(i, j uint8) bool {
		k := kinds[int(i)%len(kinds)]
		src := kinds[int(j)%len(kinds)]
		got := k.Matches(src)
		var want bool
		switch {
		case src == k:
			want = true
		case src == KindCollection:
			want = k != KindIterator
		case src.IsAbstract():
			want = k.Abstract() == src && k != src
		default:
			want = false
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
