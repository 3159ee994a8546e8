// Package chameleon is a from-scratch reproduction of "Chameleon: Adaptive
// Selection of Collections" (Shacham, Vechev, Yahav — PLDI 2009): a
// low-overhead tool that profiles how a program uses its collections, per
// allocation context, and selects the appropriate implementation for each
// context with a rule engine — either as a report for the programmer or
// fully automatically at run time.
//
// The system consists of:
//
//   - a collections library (internal/collections) with interchangeable
//     backing implementations behind one level of indirection: ArrayList,
//     LinkedList, LazyArrayList, SingletonList, IntArray, HashSet,
//     ArraySet, LazySet, LinkedHashSet, SizeAdaptingSet, HashMap,
//     ArrayMap, LazyMap, SingletonMap, LinkedHashMap, SizeAdaptingMap;
//   - a simulated collection-aware heap and GC (internal/heap) that
//     reproduces 32-bit JVM object layout and computes live/used/core
//     statistics per GC cycle through semantic maps;
//   - allocation-context capture (internal/alloctx), static or dynamic
//     (stack walking), with sampling;
//   - the semantic profiler (internal/profiler) aggregating the paper's
//     Table 1 statistics per context;
//   - the Fig. 4 rule language (internal/rules): lexer, parser, checker,
//     evaluator and printer, with the paper's Table 2 rules built in;
//   - the rule-engine report (internal/advisor) and the fully-automatic
//     online mode (internal/adaptive);
//   - the six evaluation workloads (internal/workloads) and the
//     experiment harness (internal/experiments) regenerating every figure
//     and table of the paper's §5.
//
// This root package re-exports the high-level entry points so external
// code can use the tool without referring to internal packages. See
// examples/quickstart for the five-minute tour, and the cmd/chameleon and
// cmd/chameleon-bench binaries for the command-line tools.
package chameleon

import (
	"chameleon/internal/adaptive"
	"chameleon/internal/advisor"
	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/core"
	"chameleon/internal/heap"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
	"chameleon/internal/spec"
	"chameleon/internal/workloads"
)

// Session is one profiled program run: heap, profiler, contexts and
// (optionally) the online selector.
type Session = core.Session

// Config configures a Session.
type Config = core.Config

// NewSession builds a fully wired session.
func NewSession(cfg Config) *Session { return core.NewSession(cfg) }

// Runtime is the collections runtime handles are allocated through.
type Runtime = collections.Runtime

// List, Set, Map and Iterator are the wrapper collection types.
type (
	// List is the list wrapper type.
	List[T comparable] = collections.List[T]
	// Set is the set wrapper type.
	Set[T comparable] = collections.Set[T]
	// Map is the map wrapper type.
	Map[K comparable, V comparable] = collections.Map[K, V]
	// Iterator walks a snapshot of a collection.
	Iterator[T any] = collections.Iterator[T]
)

// Option configures one allocation (Cap, At, Impl, AdaptAt).
type Option = collections.Option

// Allocation options.
var (
	// Cap requests an initial capacity.
	Cap = collections.Cap
	// At labels the allocation with a static context.
	At = collections.At
	// Impl forces a backing implementation.
	Impl = collections.Impl
	// AdaptAt sets the size-adapting conversion threshold.
	AdaptAt = collections.AdaptAt
)

// Constructors for every collection kind.
func NewArrayList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	return collections.NewArrayList[T](rt, opts...)
}

// NewLinkedList allocates a list declared as a LinkedList.
func NewLinkedList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	return collections.NewLinkedList[T](rt, opts...)
}

// NewSinglyLinkedList allocates a forward-only linked list (§5.4).
func NewSinglyLinkedList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	return collections.NewSinglyLinkedList[T](rt, opts...)
}

// NewOpenHashSet allocates an open-addressing set (no entry objects).
func NewOpenHashSet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	return collections.NewOpenHashSet[T](rt, opts...)
}

// NewOpenHashMap allocates an open-addressing map (no entry objects).
func NewOpenHashMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	return collections.NewOpenHashMap[K, V](rt, opts...)
}

// NewHashSet allocates a set declared as a HashSet.
func NewHashSet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	return collections.NewHashSet[T](rt, opts...)
}

// NewHashMap allocates a map declared as a HashMap.
func NewHashMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	return collections.NewHashMap[K, V](rt, opts...)
}

// Fixed constructors: the ahead-of-time specialization surface
// chameleon-apply rewrites decided sites onto (docs/SPECIALIZE.md). Same
// wrapper types, final backing implementation, no profiling machinery.
// The full set is re-exported so rewrites of root-package allocation
// sites always have their target in scope.
func NewFixedArrayList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	return collections.NewFixedArrayList[T](rt, opts...)
}

// NewFixedLinkedList allocates an unprofiled LinkedList-backed list.
func NewFixedLinkedList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	return collections.NewFixedLinkedList[T](rt, opts...)
}

// NewFixedSinglyLinkedList allocates an unprofiled singly-linked list.
func NewFixedSinglyLinkedList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	return collections.NewFixedSinglyLinkedList[T](rt, opts...)
}

// NewFixedEmptyList allocates an unprofiled immutable empty list.
func NewFixedEmptyList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	return collections.NewFixedEmptyList[T](rt, opts...)
}

// NewFixedLazyArrayList allocates an unprofiled LazyArrayList-backed list.
func NewFixedLazyArrayList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	return collections.NewFixedLazyArrayList[T](rt, opts...)
}

// NewFixedSingletonList allocates an unprofiled SingletonList-backed list.
func NewFixedSingletonList[T comparable](rt *Runtime, opts ...Option) *List[T] {
	return collections.NewFixedSingletonList[T](rt, opts...)
}

// NewFixedIntArrayList allocates an unprofiled unboxed-int-array list.
func NewFixedIntArrayList(rt *Runtime, opts ...Option) *List[int] {
	return collections.NewFixedIntArrayList(rt, opts...)
}

// NewFixedHashSet allocates an unprofiled HashSet-backed set.
func NewFixedHashSet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	return collections.NewFixedHashSet[T](rt, opts...)
}

// NewFixedArraySet allocates an unprofiled ArraySet-backed set.
func NewFixedArraySet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	return collections.NewFixedArraySet[T](rt, opts...)
}

// NewFixedOpenHashSet allocates an unprofiled open-addressing set.
func NewFixedOpenHashSet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	return collections.NewFixedOpenHashSet[T](rt, opts...)
}

// NewFixedLazySet allocates an unprofiled LazySet-backed set.
func NewFixedLazySet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	return collections.NewFixedLazySet[T](rt, opts...)
}

// NewFixedLinkedHashSet allocates an unprofiled LinkedHashSet-backed set.
func NewFixedLinkedHashSet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	return collections.NewFixedLinkedHashSet[T](rt, opts...)
}

// NewFixedSizeAdaptingSet allocates an unprofiled size-adapting set.
func NewFixedSizeAdaptingSet[T comparable](rt *Runtime, opts ...Option) *Set[T] {
	return collections.NewFixedSizeAdaptingSet[T](rt, opts...)
}

// NewFixedHashMap allocates an unprofiled HashMap-backed map.
func NewFixedHashMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	return collections.NewFixedHashMap[K, V](rt, opts...)
}

// NewFixedArrayMap allocates an unprofiled ArrayMap-backed map.
func NewFixedArrayMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	return collections.NewFixedArrayMap[K, V](rt, opts...)
}

// NewFixedOpenHashMap allocates an unprofiled open-addressing map.
func NewFixedOpenHashMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	return collections.NewFixedOpenHashMap[K, V](rt, opts...)
}

// NewFixedLazyMap allocates an unprofiled LazyMap-backed map.
func NewFixedLazyMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	return collections.NewFixedLazyMap[K, V](rt, opts...)
}

// NewFixedSingletonMap allocates an unprofiled SingletonMap-backed map.
func NewFixedSingletonMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	return collections.NewFixedSingletonMap[K, V](rt, opts...)
}

// NewFixedLinkedHashMap allocates an unprofiled LinkedHashMap-backed map.
func NewFixedLinkedHashMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	return collections.NewFixedLinkedHashMap[K, V](rt, opts...)
}

// NewFixedSizeAdaptingMap allocates an unprofiled size-adapting map.
func NewFixedSizeAdaptingMap[K comparable, V comparable](rt *Runtime, opts ...Option) *Map[K, V] {
	return collections.NewFixedSizeAdaptingMap[K, V](rt, opts...)
}

// Kind identifies collection kinds (spec.Kind*).
type Kind = spec.Kind

// Advisor types: the rule-engine report.
type (
	// Report is a ranked suggestion report.
	Report = advisor.Report
	// Suggestion is one context's suggestions.
	Suggestion = advisor.Suggestion
	// AdvisorOptions configure report generation.
	AdvisorOptions = advisor.Options
)

// Rule-language types.
type (
	// RuleSet is an ordered list of selection rules.
	RuleSet = rules.RuleSet
	// Rule is one selection rule.
	Rule = rules.Rule
	// Params binds rule parameters.
	Params = rules.Params
)

// ParseRules parses rule text in the Fig. 4 language. The set is
// unbound: BindRules it before reporting or selecting with it.
func ParseRules(src string) (*RuleSet, error) { return rules.Parse(src) }

// BindRules checks a parsed rule set against a parameter environment and
// returns it bound to them, with its vet findings computed once.
func BindRules(rs *RuleSet, params Params) (*RuleSet, error) { return rules.Bind(rs, params) }

// BuiltinRules returns the paper's Table 2 rule set.
func BuiltinRules() *RuleSet { return rules.Builtin() }

// ExtendedRules returns the builtin rules plus the opt-in extension rules
// (SinglyLinkedList, open addressing).
func ExtendedRules() *RuleSet { return rules.Extended() }

// Delta is one context's before/after comparison (§5.2 step 5).
type Delta = advisor.Delta

// Plan is a fixed per-context implementation assignment derived from a
// report (§3.3.2 "applied by the programmer (or by the tool)"); install it
// as Config.Selector on the next run.
type Plan = advisor.Plan

// NewPlan compiles a report's actionable suggestions into a Plan.
func NewPlan(rep *Report) *Plan { return advisor.NewPlan(rep) }

// Compare matches contexts between two snapshots and reports per-context
// gains sorted by descending gain.
func Compare(before, after []*Profile) []Delta { return advisor.Compare(before, after) }

// PrintRules renders a rule set in concrete syntax.
func PrintRules(rs *RuleSet) string { return rules.Print(rs) }

// Re-exported supporting types for advanced use.
type (
	// Heap is the simulated collection-aware heap.
	Heap = heap.Heap
	// SizeModel describes simulated object layout.
	SizeModel = heap.SizeModel
	// Footprint is the live/used/core byte triple.
	Footprint = heap.Footprint
	// Profiler is the semantic profiler.
	Profiler = profiler.Profiler
	// Profile is one context's finalized statistics.
	Profile = profiler.Profile
	// ContextMode selects context capture (Off/Static/Dynamic).
	ContextMode = alloctx.Mode
	// OnlineOptions tune the fully-automatic selector.
	OnlineOptions = adaptive.Options
	// Workload describes one evaluation workload.
	Workload = workloads.Spec
)

// Context-capture modes.
const (
	ContextOff     = alloctx.Off
	ContextStatic  = alloctx.Static
	ContextDynamic = alloctx.Dynamic
)

// Workloads lists the six paper benchmarks.
func Workloads() []Workload { return workloads.All() }
