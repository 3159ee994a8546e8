package heap

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"chameleon/internal/alloctx"
)

// TestHeapConcurrentRegisterSyncFree drives register/sync/free/data churn
// from many goroutines and checks the aggregate invariants: the heap drains
// to zero, the allocation volume is the exact sum of what the goroutines
// allocated, and the cycle count matches what that volume dictates.
func TestHeapConcurrentRegisterSyncFree(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 500
		threshold  = 8 << 10
	)
	h := New(Config{GCThreshold: threshold})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := &fakeColl{f: Footprint{Live: 64, Used: 32, Core: 16}, kind: "X"}
				tk := register(h, c)
				c.f = Footprint{Live: 128, Used: 64, Core: 32}
				tk.Sync(c.f, "")
				d := h.AllocData(256)
				d.Free()
				tk.Free()
			}
		}(g)
	}
	wg.Wait()

	if n := h.LiveCollections(); n != 0 {
		t.Fatalf("live collections = %d, want 0", n)
	}
	if b := h.LiveBytes(); b != 0 {
		t.Fatalf("live bytes = %d, want 0", b)
	}
	st := h.Stats()
	// Each round: 64 register + 64 sync growth + 256 data = 384 bytes.
	want := int64(goroutines * rounds * 384)
	if st.TotalAllocated != want {
		t.Fatalf("allocated = %d, want %d", st.TotalAllocated, want)
	}
	if got, wantGC := st.NumGC, int(want/threshold); got != wantGC {
		t.Fatalf("NumGC = %d, want %d (threshold crossings are claimed exactly once)", got, wantGC)
	}
	if st.PeakLive <= 0 || st.PeakLive > int64(goroutines)*(128+256) {
		t.Fatalf("peak live = %d outside [1, %d]", st.PeakLive, goroutines*(128+256))
	}
}

// TestHeapConcurrentConservation hammers RegisterInto/Sync/Free from
// many goroutines, with cycles running in between and one ticket synced
// concurrently by all of them. Once the goroutines stop, a cycle's
// per-context, per-kind and total readings must equal what the test
// recomputes from its own live set, and freeing that set must drain the
// heap to zero.
func TestHeapConcurrentConservation(t *testing.T) {
	const goroutines = 8
	tbl := alloctx.NewTable()
	var ctxs []*alloctx.Context
	for i := 0; i < 12; i++ {
		ctxs = append(ctxs, tbl.Static(fmt.Sprintf("conserve.test:%d", i)))
	}
	kinds := []string{"ArrayList", "HashMap", "SingletonList"}
	h := New(Config{GCThreshold: 4 << 10, KeepSnapshots: true, KeepContexts: true})
	shared := &fakeColl{f: Footprint{Live: 64, Used: 32, Core: 16}, ctx: ctxs[0], kind: "CowHashSet"}
	sharedTk := register(h, shared)

	type entry struct {
		c  *fakeColl
		tk *Ticket
	}
	live := make([][]entry, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			foot := func() Footprint {
				l := int64(8 * (1 + rng.Intn(64)))
				u := l * int64(rng.Intn(4)) / 4
				return Footprint{Live: l, Used: u, Core: u / 2}
			}
			mine := live[g]
			for i := 0; i < 3000; i++ {
				switch op := rng.Intn(10); {
				case op < 4 || len(mine) == 0:
					c := &fakeColl{f: foot(), ctx: ctxs[rng.Intn(len(ctxs))], kind: kinds[rng.Intn(len(kinds))]}
					mine = append(mine, entry{c, register(h, c)})
				case op < 6:
					e := mine[rng.Intn(len(mine))]
					e.c.f = foot()
					kind := ""
					if rng.Intn(4) == 0 {
						e.c.kind = kinds[rng.Intn(len(kinds))]
						kind = e.c.kind
					}
					e.tk.Sync(e.c.f, kind)
				case op < 7:
					e := mine[rng.Intn(len(mine))]
					d := int64(8 * (rng.Intn(9) - 4))
					if e.c.f.Live+d < 0 {
						d = -e.c.f.Live
					}
					e.c.f.Live += d
					e.tk.Sync(e.c.f, "")
				case op < 9:
					j := rng.Intn(len(mine))
					mine[j].tk.Free()
					mine[j] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				default:
					f := foot()
					sharedTk.Sync(f, "CowHashSet")
				}
			}
			live[g] = mine
		}(g)
	}
	wg.Wait()
	shared.f = Footprint{Live: 1000, Used: 500, Core: 250}
	sharedTk.Sync(shared.f, "CowHashSet")

	want := map[uint64]ContextCycle{}
	wantKinds := map[string]int64{}
	var total Footprint
	var objs int64
	add := func(c *fakeColl) {
		k := c.ctx.Key()
		cc := want[k]
		cc.Slot, cc.Key = c.ctx.Slot(), k
		cc.Footprint = cc.Footprint.Add(c.f)
		cc.Objects++
		want[k] = cc
		wantKinds[c.kind] += c.f.Live
		total = total.Add(c.f)
		objs++
	}
	add(shared)
	for _, mine := range live {
		for _, e := range mine {
			add(e.c)
		}
	}
	h.GC()
	snaps := h.Snapshots()
	snap := snaps[len(snaps)-1]
	if snap.Collections != total || snap.CollectionObjects != objs {
		t.Fatalf("cycle totals %+v/%d, want %+v/%d", snap.Collections, snap.CollectionObjects, total, objs)
	}
	if len(snap.PerContext) != len(want) {
		t.Fatalf("%d contexts reported, want %d", len(snap.PerContext), len(want))
	}
	for _, cc := range snap.PerContext {
		if cc != want[cc.Key] {
			t.Fatalf("context %#x: %+v, want %+v", cc.Key, cc, want[cc.Key])
		}
	}
	if len(snap.TypeDist) != len(wantKinds) {
		t.Fatalf("type distribution %v, want %v", snap.TypeDist, wantKinds)
	}
	for k, v := range wantKinds {
		if snap.TypeDist[k] != v {
			t.Fatalf("type distribution %v, want %v", snap.TypeDist, wantKinds)
		}
	}
	if n := h.LiveCollections(); n != int(objs) {
		t.Fatalf("live collections = %d, want %d", n, objs)
	}
	if b := h.LiveBytes(); b != total.Live {
		t.Fatalf("live bytes = %d, want %d", b, total.Live)
	}

	sharedTk.Free()
	for _, mine := range live {
		for _, e := range mine {
			e.tk.Free()
		}
	}
	h.GC()
	snap = h.Snapshots()[len(h.Snapshots())-1]
	if snap.Collections != (Footprint{}) || snap.CollectionObjects != 0 || len(snap.PerContext) != 0 || len(snap.TypeDist) != 0 {
		t.Fatalf("drained heap reports %+v", snap)
	}
	if n, b := h.LiveCollections(), h.LiveBytes(); n != 0 || b != 0 {
		t.Fatalf("drained heap: %d collections, %d bytes", n, b)
	}
}

// TestHeapConcurrentSnapshotsDuringChurn takes Stats and runs explicit GCs
// while other goroutines churn — the reader side of the locking model.
func TestHeapConcurrentSnapshotsDuringChurn(t *testing.T) {
	h := New(Config{GCThreshold: 1 << 40, KeepSnapshots: true})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := &fakeColl{f: Footprint{Live: 64}, kind: "Z"}
				tk := register(h, c)
				c.f.Live = 96
				tk.Sync(c.f, "")
				tk.Free()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		h.GC()
		st := h.Stats()
		if st.PeakLive < 0 || h.LiveBytes() < 0 {
			t.Errorf("negative estimate under churn: peak=%d live=%d", st.PeakLive, h.LiveBytes())
			break
		}
	}
	close(stop)
	wg.Wait()
	if h.LiveBytes() != 0 {
		t.Fatalf("drained churn left %d bytes", h.LiveBytes())
	}
}
