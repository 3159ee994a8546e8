package collections

import (
	"sync"
	"testing"

	"chameleon/internal/spec"
)

// The epoch-batched recording contract: a snapshot of a *live* instance may
// lag the owner by at most flushEvery-1 operations, and an epoch boundary
// (the flushEvery-th op) drains everything pending.
func TestFlushBoundedStaleness(t *testing.T) {
	rt, prof, _ := profiledRuntime(t)
	l := NewArrayList[int](rt, At("epoch:1"))
	ctx := rt.Contexts().Static("epoch:1")

	for i := 0; i < flushEvery-1; i++ {
		l.Contains(i)
	}
	p := prof.SnapshotContext(ctx)
	if got := p.OpTotals[spec.Contains]; got != 0 {
		t.Fatalf("pending ops visible before the epoch boundary: %d", got)
	}
	// One more op completes the epoch: everything pending drains.
	l.Contains(0)
	p = prof.SnapshotContext(ctx)
	if got := p.OpTotals[spec.Contains]; got != flushEvery {
		t.Fatalf("epoch flush drained %d Contains, want %d", got, flushEvery)
	}
	// However many ops run, staleness stays under flushEvery.
	for i := 0; i < 5*flushEvery+7; i++ {
		l.Contains(i)
	}
	total := int64(6*flushEvery + 7)
	p = prof.SnapshotContext(ctx)
	if got := p.OpTotals[spec.Contains]; got < total-(flushEvery-1) || got > total {
		t.Fatalf("staleness out of bounds: snapshot %d, actual %d", got, total)
	}
	// free() flushes: the folded record is exact.
	l.Free()
	p = prof.SnapshotContext(ctx)
	if got := p.OpTotals[spec.Contains]; got != total {
		t.Fatalf("post-free snapshot inexact: %d, want %d", got, total)
	}
}

// Every trace statistic — op counts, size stats, empty iterators — is exact
// once the instance dies, even when the op stream never filled an epoch.
func TestFlushOnFreeIsExact(t *testing.T) {
	rt, prof, _ := profiledRuntime(t)
	l := NewArrayList[int](rt, At("epoch:2"))
	for i := 0; i < 5; i++ {
		l.Add(i)
	}
	_ = l.Iterator() // size 5: not empty
	l.Clear()
	_ = l.Iterator() // size 0: empty
	l.Free()
	p := findByContext(t, prof.Snapshot(), "epoch:2")
	if p.OpTotals[spec.Add] != 5 || p.OpTotals[spec.Iterate] != 2 || p.OpTotals[spec.Clear] != 1 {
		t.Fatalf("op totals add=%d iter=%d clear=%d", p.OpTotals[spec.Add], p.OpTotals[spec.Iterate], p.OpTotals[spec.Clear])
	}
	if p.EmptyIterators != 1 {
		t.Fatalf("empty iterators = %d, want 1", p.EmptyIterators)
	}
	if p.MaxSizeAvg != 5 || p.FinalSizeAvg != 0 {
		t.Fatalf("size stats max=%v final=%v, want 5/0", p.MaxSizeAvg, p.FinalSizeAvg)
	}
}

// Hammers owner-side flushing against concurrent SnapshotContext calls.
// Run under -race this proves the pending counters stay owner-local and
// every shared handoff is synchronized; the final totals check proves no
// batch is lost or double-counted.
func TestConcurrentFlushVsSnapshot(t *testing.T) {
	rt, prof, _ := profiledRuntime(t)
	// Materialize the context before snapshotting so SnapshotContext never
	// returns nil below.
	warm := NewHashMap[int, int](rt, At("epoch:race"))
	warm.Free()
	ctx := rt.Contexts().Static("epoch:race")

	const opsPerLife = 3*flushEvery/2 + 3 // straddles an epoch boundary
	var (
		wg    sync.WaitGroup
		stop  = make(chan struct{})
		lives int64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := NewHashMap[int, int](rt, At("epoch:race"))
			for k := 0; k < opsPerLife; k++ {
				m.Put(k%17, k)
				m.Get(k % 17)
			}
			m.Free()
			lives++
		}
	}()
	for i := 0; i < 500; i++ {
		p := prof.SnapshotContext(ctx)
		if p == nil {
			t.Error("context vanished mid-run")
			break
		}
		if p.OpTotals[spec.Put] < 0 || p.OpTotals[spec.GetKey] < 0 {
			t.Errorf("negative op totals: %d/%d", p.OpTotals[spec.Put], p.OpTotals[spec.GetKey])
			break
		}
	}
	close(stop)
	wg.Wait()
	p := prof.SnapshotContext(ctx)
	if want := lives * opsPerLife; p.OpTotals[spec.Put] != want || p.OpTotals[spec.GetKey] != want {
		t.Fatalf("final totals put=%d get=%d, want %d each", p.OpTotals[spec.Put], p.OpTotals[spec.GetKey], want)
	}
}
