package alloctx

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSlotsConcurrent has 8 goroutines touch new and existing slots while
// the array doubles and iterations run: each slot's record is created
// once, every goroutine gets the same pointer for it, and an iteration
// visits records in slot order.
func TestSlotsConcurrent(t *testing.T) {
	const goroutines, slots = 8, 600 // 16 -> 1024: the array doubles six times
	type rec struct {
		slot  int32
		inits atomic.Int32
	}
	var s Slots[rec]
	got := make([][]*rec, goroutines)
	stop := make(chan struct{})
	iterated := make(chan error, 1)
	go func() {
		var err error
		for n := 0; ; n++ {
			last := int32(-1)
			for i, r := range s.All() {
				if i <= last || r.slot != i {
					err = fmt.Errorf("iteration %d visited slot %d (record of %d) after %d", n, i, r.slot, last)
				}
				last = i
			}
			select {
			case <-stop:
				iterated <- err
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*rec, slots)
			// Each goroutine walks the slots from its own offset, so slots
			// are touched both first and again while the array grows.
			for k := 0; k < slots; k++ {
				i := int32((k + g*slots/goroutines) % slots)
				got[g][i] = s.LoadOrInit(i, func(r *rec) {
					r.slot = i
					r.inits.Add(1)
				})
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if err := <-iterated; err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < slots; i++ {
		r := s.Load(i)
		if r == nil || r.slot != i || r.inits.Load() != 1 {
			t.Fatalf("slot %d: record %+v, want one created for it", i, r)
		}
		for g := range got {
			if got[g][i] != r {
				t.Fatalf("slot %d: goroutine %d got a different record", i, g)
			}
		}
	}
	var order []int32
	for i := range s.All() {
		order = append(order, i)
	}
	if len(order) != slots {
		t.Fatalf("iteration visited %d records, want %d", len(order), slots)
	}
	for k, i := range order {
		if i != int32(k) {
			t.Fatalf("iteration visited slot %d at position %d", i, k)
		}
	}
	if s.Load(slots) != nil || s.Load(1<<20) != nil {
		t.Fatal("untouched slot has a record")
	}
}
