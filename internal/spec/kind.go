package spec

import "fmt"

// Kind identifies a collection type: either an abstract ADT (Collection,
// List, Set, Map, Iterator — usable as the srcType of a rule) or a concrete
// implementation (usable as both srcType and implType). The concrete kinds
// are the paper's §4.2 "available implementations" plus the defaults.
type Kind int

const (
	// KindNone is the zero Kind.
	KindNone Kind = iota

	// Abstract ADTs (srcType only).

	// KindCollection matches any collection.
	KindCollection
	// KindList matches any list implementation.
	KindList
	// KindSet matches any set implementation.
	KindSet
	// KindMap matches any map implementation.
	KindMap
	// KindIterator matches iterator allocations (for the redundant-iterator rule).
	KindIterator

	// List implementations.

	// KindArrayList is a resizable array list (capacity grows by
	// newCap = oldCap*3/2+1, the paper's §2.2 formula).
	KindArrayList
	// KindLinkedList is a doubly-linked list with a sentinel entry.
	KindLinkedList
	// KindSinglyLinkedList is a singly-linked list: 16-byte entries
	// instead of 24, possible only when the client never traverses
	// backwards (paper §5.4 "Specialized Partial Interfaces").
	KindSinglyLinkedList
	// KindEmptyList is the immutable shared-empty-list idiom the PMD
	// developers applied manually ("EMPTY LIST was assigned to List
	// pointers when needed", §5.3). Mutation panics.
	KindEmptyList
	// KindLazyArrayList allocates its internal array on first update.
	KindLazyArrayList
	// KindSingletonList stores at most one element in a single field and
	// transparently upgrades to an array list if a second is added.
	KindSingletonList
	// KindIntArray is an unboxed array of ints (List[int] only).
	KindIntArray

	// Set implementations.

	// KindHashSet is the default set, backed by a hash map.
	KindHashSet
	// KindArraySet is backed by an array with linear-scan membership.
	KindArraySet
	// KindLazySet allocates its internal array on first update.
	KindLazySet
	// KindLinkedHashSet is a hash set with insertion-order links.
	KindLinkedHashSet
	// KindSizeAdaptingSet starts as an array and switches to a hash set
	// when the size crosses a threshold (the §2.3 hybrid).
	KindSizeAdaptingSet

	// KindOpenHashSet is an open-addressing set (no entry objects),
	// like the Trove implementations the paper discusses swapping in —
	// with the caveat that it "requires some guarantees on the quality of
	// the hash function being used" (§4.2).
	KindOpenHashSet

	// Map implementations.

	// KindHashMap is the default chained hash map.
	KindHashMap
	// KindOpenHashMap is an open-addressing map (parallel key/value
	// arrays, no entry objects); see KindOpenHashSet's caveat.
	KindOpenHashMap
	// KindArrayMap stores interleaved key/value pairs in one array.
	KindArrayMap
	// KindLazyMap allocates its backing hash map on first update.
	KindLazyMap
	// KindSingletonMap stores at most one entry in fields and upgrades on
	// a second put.
	KindSingletonMap
	// KindLinkedHashMap is a hash map with insertion-order links.
	KindLinkedHashMap
	// KindSizeAdaptingMap starts as an array map and switches to a hash
	// map when the size crosses a threshold (the §2.3 hybrid).
	KindSizeAdaptingMap

	numKinds
)

var kindNames = [numKinds]string{
	KindNone:             "None",
	KindCollection:       "Collection",
	KindList:             "List",
	KindSet:              "Set",
	KindMap:              "Map",
	KindIterator:         "Iterator",
	KindArrayList:        "ArrayList",
	KindLinkedList:       "LinkedList",
	KindSinglyLinkedList: "SinglyLinkedList",
	KindEmptyList:        "EmptyList",
	KindLazyArrayList:    "LazyArrayList",
	KindSingletonList:    "SingletonList",
	KindIntArray:         "IntArray",
	KindHashSet:          "HashSet",
	KindOpenHashSet:      "OpenHashSet",
	KindArraySet:         "ArraySet",
	KindLazySet:          "LazySet",
	KindLinkedHashSet:    "LinkedHashSet",
	KindSizeAdaptingSet:  "SizeAdaptingSet",
	KindHashMap:          "HashMap",
	KindOpenHashMap:      "OpenHashMap",
	KindArrayMap:         "ArrayMap",
	KindLazyMap:          "LazyMap",
	KindSingletonMap:     "SingletonMap",
	KindLinkedHashMap:    "LinkedHashMap",
	KindSizeAdaptingMap:  "SizeAdaptingMap",
}

var kindsByName = func() map[string]Kind {
	m := make(map[string]Kind, numKinds)
	for k := Kind(1); k < numKinds; k++ {
		m[kindNames[k]] = k
	}
	return m
}()

// String reports the rule-language name of the kind.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// KindByName resolves a rule-language kind name.
func KindByName(name string) (Kind, bool) {
	k, ok := kindsByName[name]
	return k, ok
}

// Abstract reports the abstract ADT a kind belongs to: lists map to
// KindList, sets to KindSet, maps to KindMap; abstract kinds map to
// themselves; KindNone maps to KindNone.
func (k Kind) Abstract() Kind {
	switch k {
	case KindArrayList, KindLinkedList, KindSinglyLinkedList, KindEmptyList,
		KindLazyArrayList, KindSingletonList, KindIntArray:
		return KindList
	case KindHashSet, KindOpenHashSet, KindArraySet, KindLazySet, KindLinkedHashSet,
		KindSizeAdaptingSet:
		return KindSet
	case KindHashMap, KindOpenHashMap, KindArrayMap, KindLazyMap, KindSingletonMap,
		KindLinkedHashMap, KindSizeAdaptingMap:
		return KindMap
	default:
		return k
	}
}

// IsAbstract reports whether the kind is an abstract ADT rather than an
// implementation.
func (k Kind) IsAbstract() bool {
	switch k {
	case KindCollection, KindList, KindSet, KindMap, KindIterator:
		return true
	}
	return false
}

// Matches reports whether a collection of this (concrete or declared) kind
// matches the srcType pattern of a rule: KindCollection matches every
// collection kind, an abstract ADT matches its implementations, and a
// concrete kind matches only itself.
func (k Kind) Matches(src Kind) bool {
	if src == k {
		return true
	}
	switch src {
	case KindCollection:
		return k != KindIterator && k != KindNone
	case KindList, KindSet, KindMap:
		return k.Abstract() == src
	}
	return false
}

// Concurrent reports whether the kind's backing implementation is safe for
// unsynchronized use from multiple goroutines. No backing is: a collection
// shared across goroutines needs external synchronization.
func (k Kind) Concurrent() bool { return false }

// Kinds lists every kind, abstract and concrete, in declaration order.
func Kinds() []Kind {
	out := make([]Kind, 0, numKinds-1)
	for k := Kind(1); k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}
