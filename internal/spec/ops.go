// Package spec defines the shared vocabulary of the Chameleon system: the
// profiled collection operations (the opCount terminals of the rule
// language, paper Fig. 4) and the collection kinds (the srcType / implType
// terminals). The collections library records these, the profiler
// aggregates them, and the rule engine evaluates over them.
package spec

import "fmt"

// Op identifies one profiled collection operation. The set mirrors the
// java.util surface the paper profiles, including the interaction counters
// for copy operations ("when adding the contents of one collection into
// another using c1.addAll(c2), we record the fact that addAll was invoked
// on c1, but also the fact that c2 was used as an argument", §3.2.2 —
// that second fact is Copied).
type Op int

const (
	// Add is add(e) on lists and sets.
	Add Op = iota
	// AddAt is add(i, e) on lists.
	AddAt
	// AddAll is addAll(c) — recorded on the destination.
	AddAll
	// AddAllAt is addAll(i, c) on lists.
	AddAllAt
	// GetIndex is get(int) positional access on lists (the "#get(int)" of Fig. 4).
	GetIndex
	// GetKey is get(Object) key lookup on maps (the "#get(Object)" of Fig. 4).
	GetKey
	// Put is put(k, v) on maps.
	Put
	// PutAll is putAll(m) — recorded on the destination.
	PutAll
	// SetAt is set(i, e) on lists.
	SetAt
	// Remove is remove(Object) by value on lists and sets.
	Remove
	// RemoveAt is remove(int) on lists.
	RemoveAt
	// RemoveFirst is removeFirst() on lists (deque-style head removal).
	RemoveFirst
	// RemoveKey is remove(k) on maps.
	RemoveKey
	// Contains is contains(Object) on lists and sets.
	Contains
	// ContainsKey is containsKey(k) on maps.
	ContainsKey
	// ContainsValue is containsValue(v) on maps.
	ContainsValue
	// IndexOf is indexOf(Object) on lists.
	IndexOf
	// Iterate is iterator() creation.
	Iterate
	// ListIterate is listIterator() creation — the bidirectional list
	// iterator whose mere availability precludes singly-linked
	// implementations (paper §5.4 "Specialized Partial Interfaces").
	// Contexts that never call it can use a SinglyLinkedList.
	ListIterate
	// Size is size().
	Size
	// IsEmpty is isEmpty().
	IsEmpty
	// Clear is clear().
	Clear
	// ContainsAll is containsAll(c) on lists and sets — recorded on the
	// receiver, with Copied recorded on the argument.
	ContainsAll
	// RemoveAll is removeAll(c): delete every element of the argument.
	RemoveAll
	// RetainAll is retainAll(c): keep only elements of the argument.
	RetainAll
	// Copied counts the collection being used as the *source* of an
	// addAll/putAll or a copy constructor. It identifies temporaries that
	// are never operated upon directly other than copying their content.
	Copied

	// NumOps is the number of operation kinds.
	NumOps
)

var opNames = [NumOps]string{
	Add:           "add",
	AddAt:         "addAt",
	AddAll:        "addAll",
	AddAllAt:      "addAllAt",
	GetIndex:      "get(int)",
	GetKey:        "get(Object)",
	Put:           "put",
	PutAll:        "putAll",
	SetAt:         "set",
	Remove:        "remove",
	RemoveAt:      "removeAt",
	RemoveFirst:   "removeFirst",
	RemoveKey:     "removeKey",
	Contains:      "contains",
	ContainsKey:   "containsKey",
	ContainsValue: "containsValue",
	IndexOf:       "indexOf",
	Iterate:       "iterator",
	ListIterate:   "listIterator",
	Size:          "size",
	IsEmpty:       "isEmpty",
	Clear:         "clear",
	ContainsAll:   "containsAll",
	RemoveAll:     "removeAll",
	RetainAll:     "retainAll",
	Copied:        "copied",
}

var opsByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); op < NumOps; op++ {
		m[opNames[op]] = op
	}
	return m
}()

// String reports the rule-language name of the operation (e.g. "get(int)").
func (o Op) String() string {
	if o < 0 || o >= NumOps {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// OpByName resolves a rule-language operation name.
func OpByName(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
}

// IsOverloadedOp reports whether base+"("+arg+")" names an operation —
// used by the rule parser to recognize the overloaded spellings get(int)
// and get(Object) from Fig. 4.
func IsOverloadedOp(base, arg string) bool {
	_, ok := opsByName[base+"("+arg+")"]
	return ok
}

// opSet is a bitmask over Op values.
type opSet uint64

func setOf(ops ...Op) opSet {
	var s opSet
	for _, op := range ops {
		s |= 1 << op
	}
	return s
}

// adtOps records which operations the collections library can record on
// each abstract ADT — the operation surface of List/Set/Map. Comparing a
// counter outside its ADT's surface is vacuous: it is identically zero.
var adtOps = map[Kind]opSet{
	KindList: setOf(Add, AddAt, AddAll, AddAllAt, GetIndex, SetAt,
		Remove, RemoveAt, RemoveFirst, Contains, IndexOf,
		ContainsAll, RemoveAll, RetainAll, Iterate, ListIterate,
		Size, IsEmpty, Clear, Copied),
	KindSet: setOf(Add, AddAll, Remove, Contains,
		ContainsAll, RemoveAll, RetainAll, Iterate,
		Size, IsEmpty, Clear, Copied),
	KindMap: setOf(GetKey, Put, PutAll, RemoveKey,
		ContainsKey, ContainsValue, Iterate,
		Size, IsEmpty, Clear, Copied),
}

// OpApplies reports whether the operation can ever be recorded on a
// collection whose kind matches src: for an abstract ADT the ADT's own
// surface, for a concrete kind its ADT's surface, for Collection the union
// of all three, and for Iterator nothing (iterator contexts record no
// collection operations). A rule comparing an inapplicable counter tests a
// constant zero.
func OpApplies(op Op, src Kind) bool {
	if op < 0 || op >= NumOps {
		return false
	}
	switch src {
	case KindCollection:
		return true
	case KindIterator, KindNone:
		return false
	}
	s, ok := adtOps[src.Abstract()]
	return ok && s&(1<<op) != 0
}

// AllOps is the derived metric name "#allOps": the sum of every operation
// counter, including Copied. A collection with #allOps == 0 was never used
// at all (redundant allocation), and one with #allOps == #copied was never
// operated upon directly other than having its content copied — the two
// temporary-detection rules of paper Table 2.
func AllOps(counts *[NumOps]int64) int64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	return total
}
