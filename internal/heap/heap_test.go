package heap

import (
	"testing"
	"testing/quick"
	"unsafe"

	"chameleon/internal/alloctx"
)

func TestSizeModelAlign(t *testing.T) {
	m := Model32
	cases := []struct{ in, want int64 }{
		{0, 0}, {1, 8}, {7, 8}, {8, 8}, {9, 16}, {24, 24},
	}
	for _, c := range cases {
		if got := m.AlignUp(c.in); got != c.want {
			t.Errorf("AlignUp(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	none := SizeModel{Align: 0}
	if none.AlignUp(13) != 13 {
		t.Errorf("Align<=1 must be identity")
	}
}

// The paper's anchor number: on a 32-bit architecture a hash entry object
// (header plus three pointer fields) consumes 24 bytes (§2.3).
func TestModel32EntryIs24Bytes(t *testing.T) {
	if got := Model32.ObjectFields(3, 0); got != 24 {
		t.Fatalf("32-bit entry object = %d bytes, want 24", got)
	}
}

func TestSizeModelShapes(t *testing.T) {
	m := Model32
	if got := m.PtrArray(0); got != 16 {
		t.Errorf("empty ptr array = %d, want 16 (aligned 12-byte header)", got)
	}
	if got := m.PtrArray(10); got != m.AlignUp(12+40) {
		t.Errorf("PtrArray(10) = %d", got)
	}
	if got := m.IntArray(3); got != m.AlignUp(12+12) {
		t.Errorf("IntArray(3) = %d", got)
	}
	if got := m.Object(0); got != 8 {
		t.Errorf("empty object = %d, want 8", got)
	}
}

func TestSizeModelMonotonic(t *testing.T) {
	f := func(n uint16) bool {
		m := Model64
		a, b := int64(n), int64(n)+1
		return m.PtrArray(a) <= m.PtrArray(b) && m.IntArray(a) <= m.IntArray(b) &&
			m.AlignUp(a) >= a && m.AlignUp(a)%m.Align == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFootprint(t *testing.T) {
	a := Footprint{Live: 100, Used: 60, Core: 40}
	b := Footprint{Live: 10, Used: 5, Core: 2}
	sum := a.Add(b)
	if sum != (Footprint{110, 65, 42}) {
		t.Fatalf("Add = %+v", sum)
	}
	if a.Overhead() != 40 {
		t.Fatalf("Overhead = %d, want 40", a.Overhead())
	}
	if m := b.Max(Footprint{Live: 5, Used: 9, Core: 1}); m != (Footprint{10, 9, 2}) {
		t.Fatalf("Max = %+v", m)
	}
}

// fakeColl is a minimal semantic-map implementation for heap tests.
type fakeColl struct {
	f    Footprint
	ctx  *alloctx.Context
	kind string
}

func (c *fakeColl) HeapFootprint() Footprint { return c.f }
func (c *fakeColl) KindName() string         { return c.kind }

// register books c under its context through a fresh ticket.
func register(h *Heap, c *fakeColl) *Ticket {
	t := new(Ticket)
	h.RegisterInto(c, t, c.ctx)
	return t
}

// perContext finds key's reading in a cycle's per-context slice.
func perContext(c CycleStats, key uint64) (ContextCycle, bool) {
	for _, cc := range c.PerContext {
		if cc.Key == key {
			return cc, true
		}
	}
	return ContextCycle{}, false
}

func TestHeapRegisterFreeAndGC(t *testing.T) {
	tbl := alloctx.NewTable()
	h := New(Config{GCThreshold: 1 << 40, KeepSnapshots: true, KeepContexts: true})
	x1, x2 := tbl.Static("heap.test:1"), tbl.Static("heap.test:2")
	k1, k2 := x1.Key(), x2.Key()
	c1 := &fakeColl{f: Footprint{Live: 100, Used: 50, Core: 30}, ctx: x1, kind: "ArrayList"}
	c2 := &fakeColl{f: Footprint{Live: 200, Used: 120, Core: 80}, ctx: x2, kind: "HashMap"}
	t1 := register(h, c1)
	t2 := register(h, c2)
	d := h.AllocData(1000)

	h.GC()
	st := h.Stats()
	if st.NumGC != 1 {
		t.Fatalf("NumGC = %d", st.NumGC)
	}
	if st.MaxCollections.Live != 300 || st.MaxCollections.Used != 170 || st.MaxCollections.Core != 110 {
		t.Fatalf("collections = %+v", st.MaxCollections)
	}
	if st.MaxLiveData != 1000+300+h.Model().AlignUp(0) {
		// AllocData aligns 1000 to 1000 (already aligned under Model32).
		t.Fatalf("MaxLiveData = %d", st.MaxLiveData)
	}
	snap := h.Snapshots()[0]
	if snap.CollectionObjects != 2 {
		t.Fatalf("objects = %d", snap.CollectionObjects)
	}
	if snap.TypeDist["HashMap"] != 200 || snap.TypeDist["ArrayList"] != 100 {
		t.Fatalf("typedist = %v", snap.TypeDist)
	}
	if cc, _ := perContext(snap, k2); cc.Objects != 1 || cc.Footprint.Live != 200 {
		t.Fatalf("per-context = %+v", cc)
	}

	t1.Free()
	t1.Free() // double free is a no-op
	d.Free()
	d.Free()
	h.GC()
	snap2 := h.Snapshots()[1]
	if snap2.Collections.Live != 200 || snap2.LiveData != 200 {
		t.Fatalf("after free: %+v", snap2)
	}
	if _, ok := perContext(snap2, k1); ok || len(snap2.PerContext) != 1 {
		t.Fatalf("a context without live collections is reported: %+v", snap2.PerContext)
	}
	if _, ok := snap2.TypeDist["ArrayList"]; ok {
		t.Fatalf("a kind without live collections is reported: %v", snap2.TypeDist)
	}
	t2.Free()
	h.GC()
	if h.Snapshots()[2].Collections.Live != 0 {
		t.Fatalf("live after all freed: %+v", h.Snapshots()[2])
	}
}

// TestTicketSizeHolds: the ticket is embedded in every wrapper header, so
// growing it slows every plain collection operation that scans headers.
func TestTicketSizeHolds(t *testing.T) {
	if n := unsafe.Sizeof(Ticket{}); n > 72 {
		t.Fatalf("Ticket is %d bytes, want <= 72", n)
	}
}

func TestHeapGCTriggerByAllocationVolume(t *testing.T) {
	h := New(Config{GCThreshold: 1000})
	for i := 0; i < 10; i++ {
		d := h.AllocData(500)
		d.Free()
	}
	// 10 * 504 aligned bytes of churn with a 1000-byte threshold: ~5 GCs.
	st := h.Stats()
	if st.NumGC < 4 || st.NumGC > 6 {
		t.Fatalf("NumGC = %d, want about 5", st.NumGC)
	}
	if st.PeakLive > 504 {
		t.Fatalf("peak live = %d: churn must not raise the peak beyond one object", st.PeakLive)
	}
}

func TestHeapPeakAndMinimalHeap(t *testing.T) {
	h := New(Config{GCThreshold: 1 << 40})
	d1 := h.AllocData(1 << 12)
	d2 := h.AllocData(1 << 12)
	d1.Free()
	d3 := h.AllocData(1 << 10)
	_ = d2
	_ = d3
	want := int64(2 << 12) // the moment both 4 KiB objects were live
	if h.Stats().PeakLive != want {
		t.Fatalf("peak = %d, want %d", h.Stats().PeakLive, want)
	}
	if h.MinimalHeap() != want {
		t.Fatalf("minimal heap = %d, want %d", h.MinimalHeap(), want)
	}
}

// TestTicketAdjustTracksGrowth: a ticket's booking follows the growth its
// owner pushes through Sync, holds across a GC, and Free returns all of it.
func TestTicketAdjustTracksGrowth(t *testing.T) {
	h := New(Config{GCThreshold: 1 << 40})
	c := &fakeColl{f: Footprint{Live: 64, Used: 64, Core: 64}}
	tk := register(h, c)
	c.f = Footprint{Live: 128, Used: 100, Core: 80}
	tk.Sync(c.f, "")
	if h.LiveBytes() != 128 {
		t.Fatalf("live bytes = %d, want 128", h.LiveBytes())
	}
	h.GC() // cycles aggregate the ticket-cached readings; nothing drifts
	if h.LiveBytes() != 128 {
		t.Fatalf("post-GC live = %d, want 128", h.LiveBytes())
	}
	tk.Free()
	if h.LiveBytes() != 0 {
		t.Fatalf("after free live = %d, want 0", h.LiveBytes())
	}
}

type capturingObserver struct{ cycles []int }

func (o *capturingObserver) ObserveCycle(c *CycleStats) { o.cycles = append(o.cycles, c.Cycle) }

func TestHeapObserver(t *testing.T) {
	obs := &capturingObserver{}
	h := New(Config{GCThreshold: 100, Observer: obs})
	h.AllocData(350)
	if len(obs.cycles) != 3 {
		t.Fatalf("observer saw %d cycles, want 3", len(obs.cycles))
	}
	for i, c := range obs.cycles {
		if c != i+1 {
			t.Fatalf("cycle numbering wrong: %v", obs.cycles)
		}
	}
}

func TestFormatTypeDist(t *testing.T) {
	s := FormatTypeDist(map[string]int64{"A": 10, "B": 30, "C": 10})
	if s != "B=30, A=10, C=10" {
		t.Fatalf("got %q", s)
	}
	if FormatTypeDist(nil) != "" {
		t.Fatalf("empty dist should format to empty string")
	}
}

func TestDefaultConfig(t *testing.T) {
	h := New(Config{})
	if h.Model() != Model32 {
		t.Fatalf("default model should be Model32")
	}
	if h.gcThreshold != 1<<20 {
		t.Fatalf("default threshold = %d", h.gcThreshold)
	}
}

func TestSyncKeepsEstimateExact(t *testing.T) {
	h := New(Config{GCThreshold: 1 << 40})
	c := &fakeColl{f: Footprint{Live: 50}, kind: "X"}
	tk := register(h, c)
	c.f.Live = 90
	tk.Sync(c.f, "") // owners push semantic-map changes; no GC walk needed
	if h.LiveBytes() != 90 {
		t.Fatalf("Sync did not update the estimate: %d", h.LiveBytes())
	}
	tk.Free()
	if h.LiveBytes() != 0 {
		t.Fatalf("free after Sync leaked: %d", h.LiveBytes())
	}
}

// TestSyncTracksKindChanges: a kind change (a singleton promoted to an
// array list) moves the collection's live bytes between kinds in the
// Table 3 breakdown.
func TestSyncTracksKindChanges(t *testing.T) {
	h := New(Config{GCThreshold: 1 << 40, KeepSnapshots: true})
	tk := register(h, &fakeColl{f: Footprint{Live: 16}, kind: "SingletonList"})
	register(h, &fakeColl{f: Footprint{Live: 40}, kind: "ArrayList"})
	tk.Sync(Footprint{Live: 24}, "SingletonList")
	tk.Sync(Footprint{Live: 64}, "ArrayList")
	h.GC()
	if got := h.Snapshots()[0].TypeDist; len(got) != 1 || got["ArrayList"] != 104 {
		t.Fatalf("after promotion: %v", got)
	}
	tk.Sync(Footprint{Live: 56}, "")
	tk.Free()
	h.GC()
	if got := h.Snapshots()[1].TypeDist; len(got) != 1 || got["ArrayList"] != 40 {
		t.Fatalf("after free: %v", got)
	}
}

func TestOOMOnTicketSync(t *testing.T) {
	h := New(Config{GCThreshold: 1 << 40, Limit: 200})
	defer func() {
		r := recover()
		oom, ok := r.(OOMError)
		if !ok {
			t.Fatalf("expected OOMError, got %v", r)
		}
		if oom.Limit != 200 {
			t.Fatalf("oom = %+v", oom)
		}
	}()
	c := &fakeColl{f: Footprint{Live: 64}, kind: "X"}
	tk := register(h, c)
	c.f.Live = 300
	tk.Sync(c.f, "") // pushes live past the limit
	t.Fatal("no OOM")
}

func TestOOMOnDataAllocation(t *testing.T) {
	h := New(Config{Limit: 100})
	defer func() {
		if _, ok := recover().(OOMError); !ok {
			t.Fatal("expected OOMError")
		}
	}()
	h.AllocData(64)
	h.AllocData(64)
	t.Fatal("no OOM")
}
