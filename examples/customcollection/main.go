// Customcollection: profiling application-specific collection classes.
//
// The paper notes that benchmarks like HSQLDB "use their own collection
// classes", and that Chameleon's collection-aware GC "can profile them
// already as it is parametric in the semantic maps that describe the
// custom collection classes" (§5.1). This example defines its own
// collection — an open-addressed int-to-int cache that is NOT part of the
// chameleon library — gives it a semantic map (the heap.Collection
// interface) and a trace record (profiler.Instance), and shows the same
// per-context report working on it.
//
// Run with: go run ./examples/customcollection
package main

import (
	"fmt"

	"chameleon/internal/advisor"
	"chameleon/internal/alloctx"
	"chameleon/internal/core"
	"chameleon/internal/heap"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
	"chameleon/internal/spec"
)

// IntCache is the application's own collection class: a fixed-capacity
// open-addressed int->int cache, as a database engine might hand-roll.
type IntCache struct {
	keys    []int32
	vals    []int32
	used    []bool
	size    int
	maxSize int

	// Chameleon integration: the heap ticket books the object under its
	// allocation context and needs only the ability to size it; trace
	// profiling needs the instance record.
	ctx    *alloctx.Context
	inst   *profiler.Instance
	ticket heap.Ticket
	model  heap.SizeModel
}

// NewIntCache allocates the custom collection and registers it with the
// Chameleon session — the "very little manual effort in the library" the
// paper mentions.
func NewIntCache(s *core.Session, label string, capacity int) *IntCache {
	c := &IntCache{
		keys:  make([]int32, capacity),
		vals:  make([]int32, capacity),
		used:  make([]bool, capacity),
		ctx:   s.Contexts.Static(label),
		model: s.Heap.Model(),
	}
	// KindCollection: the custom class maps to no library kind; rules over
	// srcType Collection still apply to it.
	c.inst = s.Prof.OnAlloc(c.ctx, spec.KindCollection, spec.KindCollection, capacity)
	s.Heap.RegisterInto(c, &c.ticket, c.ctx)
	return c
}

// HeapFootprint is the semantic map: it teaches the collection-aware GC
// how to size this custom class (paper §4.3.2).
func (c *IntCache) HeapFootprint() heap.Footprint {
	m := c.model
	obj := m.ObjectFields(3, 2)
	arrays := 2*m.IntArray(int64(len(c.keys))) + m.AlignUp(m.ArrayHeader+int64(len(c.used)))
	usedArrays := 2*m.IntArray(int64(c.size)) + m.AlignUp(m.ArrayHeader+int64(c.size))
	f := heap.Footprint{Live: obj + arrays, Used: obj + usedArrays}
	if c.size > 0 {
		f.Core = m.IntArray(2 * int64(c.size))
	}
	return f
}

// KindName implements heap.Collection (Table 3 type distribution).
func (c *IntCache) KindName() string { return "app.IntCache" }

// Put inserts or updates a key.
func (c *IntCache) Put(k, v int32) bool {
	mask := len(c.keys) - 1
	i := int(uint32(k)*2654435761) & mask
	for probes := 0; probes < len(c.keys); probes++ {
		if !c.used[i] {
			c.used[i], c.keys[i], c.vals[i] = true, k, v
			c.size++
			if c.size > c.maxSize {
				c.maxSize = c.size
			}
			c.inst.Record(spec.Put)
			c.inst.NoteSize(c.size)
			// Push the new footprint into the heap ticket: the GC never
			// reads the collection itself, it aggregates these cached
			// readings (the library wrappers do the same in afterMutate).
			c.ticket.Sync(c.HeapFootprint(), c.KindName())
			return true
		}
		if c.keys[i] == k {
			c.vals[i] = v
			c.inst.Record(spec.Put)
			return true
		}
		i = (i + 1) & mask
	}
	return false // full
}

// Get looks a key up.
func (c *IntCache) Get(k int32) (int32, bool) {
	c.inst.Record(spec.GetKey)
	mask := len(c.keys) - 1
	i := int(uint32(k)*2654435761) & mask
	for probes := 0; probes < len(c.keys); probes++ {
		if !c.used[i] {
			return 0, false
		}
		if c.keys[i] == k {
			return c.vals[i], true
		}
		i = (i + 1) & mask
	}
	return 0, false
}

// Free releases the cache (death: fold the trace record, drop from the
// live set).
func (c *IntCache) Free(s *core.Session) {
	c.ticket.Free()
	s.Prof.OnDeath(c.inst)
}

func main() {
	session := core.NewSession(core.Config{GCThreshold: 16 << 10})

	// The application allocates generously sized caches but stores only a
	// handful of entries in each — the classic utilization gap.
	var caches []*IntCache
	for i := 0; i < 64; i++ {
		c := NewIntCache(session, "hsqldb.index.RowCache:210;hsqldb.Table.open:95", 256)
		for j := int32(0); j < 6; j++ {
			c.Put(j, j*10)
		}
		for j := int32(0); j < 100; j++ {
			c.Get(j % 6)
		}
		caches = append(caches, c)
	}
	session.FinalGC()

	// The builtin rules target library kinds; write one for the custom
	// class's pathology (oversized initial capacity) — rules over srcType
	// Collection apply to any profiled class.
	extra, err := rules.Parse(`
Collection : initialCapacity > maxSize * 4 && maxSize > 0 -> setCapacity(maxSize)
    "Space: initial capacity far above the observed maximal size"
`)
	if err != nil {
		panic(err)
	}
	rs, err := rules.Bind(&rules.RuleSet{Rules: append(rules.Builtin().Rules, extra.Rules...)}, rules.DefaultParams)
	if err != nil {
		panic(err)
	}

	rep, err := session.Report(advisor.Options{Rules: rs})
	if err != nil {
		panic(err)
	}
	fmt.Println("custom collection class profiled through its semantic map:")
	fmt.Print(rep.FormatTopContexts(1))
	fmt.Println("\nsuggestions (srcType Collection rules apply to custom classes):")
	fmt.Print(rep.Format())

	for _, c := range caches {
		c.Free(session)
	}
	st := session.Heap.Stats()
	fmt.Printf("\nGC saw the custom class in its type distribution; peak live %d bytes\n", st.PeakLive)
}
