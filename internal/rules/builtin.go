package rules

import (
	"slices"
	"sync"
)

// BuiltinSource is the concrete-syntax text of the rules pre-equipped with
// Chameleon — paper Table 2, expressed in the Fig. 4 language. The
// thresholds are the named parameters bound by DefaultParams ("the
// constants used in the rules are not shown, as they may be tuned per
// specific environment").
const BuiltinSource = `
// Time: a large volume of contains operations on a large-sized list is
// better handled by a hashed, insertion-ordered set.
ArrayList : #contains > X && maxSize > Y -> LinkedHashSet
    "Time: inefficient use of an ArrayList: large volume of contains operations on a large sized list"

// Time: random access by index on a linked list is linear; use an array.
LinkedList : #get(int) > X -> ArrayList
    "Time: inefficient use of a LinkedList: large volume of random accesses using get(i)"

// Space: linked-list entry overhead is not justified when middle/head
// insertion and removal are hardly performed. Restricted to contexts whose
// lists typically hold elements — mostly-empty contexts are the lazy
// rule's territory (an eager array is *worse* than an empty linked list).
LinkedList : (#addAt + #addAllAt + #removeAt + #removeFirst) < X && maxSize > 0 && emptyFraction < F -> ArrayList(maxSize)
    "Space: LinkedList overhead not justified when adding/removing elements from the middle/head of the list is hardly performed"

// Space: collections that never (or almost never) hold an element should
// allocate lazily. The distribution matters, not the mean: a context where
// 90% of instances stay empty (the bloat/PMD pathology) has a non-zero
// average maximal size but an emptyFraction near 1.
ArrayList : (maxSize == 0 || emptyFraction > F) && #allOps > 0 -> LazyArrayList
    "Space: redundant collection allocation - most instances stay empty"
LinkedList : (maxSize == 0 || emptyFraction > F) && #allOps > 0 -> LazyArrayList
    "Space: redundant collection allocation - most instances stay empty"
HashMap : (maxSize == 0 || emptyFraction > F) && #allOps > 0 -> LazyMap
    "Space: redundant collection allocation - most instances stay empty"
HashSet : (maxSize == 0 || emptyFraction > F) && #allOps > 0 -> LazySet
    "Space: redundant collection allocation - most instances stay empty"

// Space/Time: small sets and maps are better backed by arrays.
HashSet : maxSize < Z && maxSize > 0 -> ArraySet(maxSize)
    "Space: ArraySet more efficient than an HashSet. Time: operations on a small array might be faster than on an HashSet"
HashMap : maxSize < Z && maxSize > 0 -> ArrayMap(maxSize)
    "Space: ArrayMap more efficient than an HashMap. Time: operations on a small array might be faster than on an HashMap"

// Lists that provably hold at most one element.
ArrayList : maxSize == 1 && (#addAt + #removeAt + #set) == 0 -> SingletonList
    "Space: list holds at most one element - use SingletonList"

// Space/Time: a collection that is never operated upon is redundant.
Collection : #allOps == 0 -> avoid
    "Space/Time: redundant collection - avoid allocation"

// Space/Time: a collection only ever used as a copy source is a temporary.
Collection : #allOps == #copied && #allOps > 0 -> eliminateCopies
    "Space/Time: redundant copying of collections - eliminate temporaries"

// Space/Time: growing past the initial capacity means repeated resizing;
// allocate at the observed maximal size up front.
Collection : maxSize > initialCapacity && maxSize > 0 -> setCapacity(maxSize)
    "Space/Time: incremental resizing - set initial capacity"

// Space: iterators created over empty collections are pure garbage.
Collection : emptyIterators > E -> removeIterator
    "Space: redundant iterator over empty collection - remove"
`

// DefaultParams binds the Table 2 thresholds:
//
//	X — "large volume of operations" cutoff (per-instance average count)
//	Y — "large sized" collection cutoff
//	Z — "small sized" collection cutoff (strictly below)
//	E — empty-iterator count worth flagging
//	S — stability (standard-deviation) bound for explicit stable() checks
//	F — fraction of instances that stay empty for the lazy-allocation rules
var DefaultParams = Params{
	"X": 32,
	"Y": 32,
	"Z": 16,
	"E": 64,
	"S": 8,
	"F": 0.75,
}

// Builtin returns the rules of BuiltinSource bound to DefaultParams. The
// source is parsed, checked and vetted once; every call returns a new
// RuleSet whose Rules slice is clipped, so appending to it copies, while
// the rules themselves are shared and must not be modified. It panics if
// the source does not load — the source is part of the package and
// covered by tests.
func Builtin() *RuleSet { rs := *builtinSet(); return &rs }

var builtinSet = sync.OnceValue(func() *RuleSet { return mustBind("builtin", nil, BuiltinSource) })

// mustBind parses a rule source shipped with the package and binds base's
// rules followed by the source's to DefaultParams.
func mustBind(name string, base []*Rule, src string) *RuleSet {
	rs, err := Parse(src)
	if err == nil {
		rs, err = Bind(&RuleSet{Rules: append(slices.Clip(base), rs.Rules...)}, DefaultParams)
	}
	if err != nil {
		panic("rules: " + name + " rule set does not load: " + err.Error())
	}
	return rs
}

// ExtendedSource holds the opt-in rules for the specialized
// implementations beyond the paper's Table 2: the §5.4 partial-interface
// singly-linked list and the §4.2 Trove-style open-addressing structures.
// The open-addressing rules presume a well-distributed hash function —
// the guarantee the paper says is "hard to determine in Java" — which is
// why they are not part of the default set; they also demonstrate the
// explicit stable(...) stability syntax.
const ExtendedSource = `
// §5.4: the full List interface's backward-traversing list iterator is the
// only thing forcing doubly-linked entries. A context that never asks for
// one (and performs no positional surgery) can use 16-byte entries.
LinkedList : #listIterator == 0 && (#addAt + #removeAt + #set) == 0 && maxSize > 0 -> SinglyLinkedList
    "Space: no backward traversal or positional updates - singly-linked entries suffice"

// §4.2: open addressing removes the per-entry objects of chained hashing;
// worthwhile for maps too big for an ArrayMap, when sizes are stable.
HashMap : maxSize >= Z && stable(maxSize) < S -> OpenHashMap(maxSize)
    "Space: open-addressing map avoids per-entry objects (requires a well-distributed hash)"
HashSet : maxSize >= Z && stable(maxSize) < S -> OpenHashSet(maxSize)
    "Space: open-addressing set avoids per-entry objects (requires a well-distributed hash)"
`

// Extended returns the builtin rules followed by the extension rules,
// bound to DefaultParams; earlier (builtin) rules keep priority. Like
// Builtin, the sources are parsed, checked and vetted once and every call
// returns a new, clipped RuleSet.
func Extended() *RuleSet { rs := *extendedSet(); return &rs }

var extendedSet = sync.OnceValue(func() *RuleSet { return mustBind("extended", builtinSet().Rules, ExtendedSource) })
