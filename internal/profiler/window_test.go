package profiler

import (
	"sync"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/spec"
)

// windowCtx interns a fresh static context for window tests.
func windowCtx(t *alloctx.Table, label string) *alloctx.Context {
	return t.Static(label)
}

// TestWindowExcludesPreWindowInstances: instances allocated before
// OpenWindow never enter the window, even when they die inside it.
func TestWindowExcludesPreWindowInstances(t *testing.T) {
	p := New()
	tbl := alloctx.NewTable()
	ctx := windowCtx(tbl, "win.test:1")

	// Pre-window instance: 10 adds, size 10.
	pre := p.OnAlloc(ctx, spec.KindArrayList, spec.KindArrayList, 0)
	for i := 0; i < 10; i++ {
		pre.Record(spec.Add)
	}
	pre.NoteSize(10)

	p.OpenWindow(ctx)

	if w := p.WindowSnapshot(ctx); w == nil || w.Evidence != 0 {
		t.Fatalf("fresh window: snapshot=%v", w)
	}

	// The pre-window instance dies inside the window: lifetime stats fold
	// it, the window must not.
	p.OnDeath(pre)
	w := p.WindowSnapshot(ctx)
	if w.Evidence != 0 || w.OpTotals[spec.Add] != 0 {
		t.Fatalf("pre-window death leaked into window: evidence=%d adds=%d", w.Evidence, w.OpTotals[spec.Add])
	}
	full := p.SnapshotContext(ctx)
	if full.OpTotals[spec.Add] != 10 {
		t.Fatalf("lifetime stats lost the pre-window instance: adds=%d", full.OpTotals[spec.Add])
	}
}

// TestWindowFoldsPostWindowInstances: dead and still-live post-window
// instances both contribute evidence, and closing drops the window.
func TestWindowFoldsPostWindowInstances(t *testing.T) {
	p := New()
	tbl := alloctx.NewTable()
	ctx := windowCtx(tbl, "win.test:2")

	// The context must exist before a window can open.
	seed := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 0)
	p.OnDeath(seed)
	p.OpenWindow(ctx)

	// Two post-window instances: one dies, one stays live.
	a := p.OnAlloc(ctx, spec.KindHashMap, spec.KindArrayMap, 0)
	a.Record(spec.Put)
	a.NoteSize(3)
	p.OnDeath(a)

	b := p.OnAlloc(ctx, spec.KindHashMap, spec.KindArrayMap, 0)
	b.Record(spec.Put)
	b.Record(spec.Put)
	b.NoteSize(7)

	w := p.WindowSnapshot(ctx)
	if w == nil {
		t.Fatal("no window snapshot")
	}
	if w.Evidence != 2 || w.Live != 1 {
		t.Fatalf("evidence=%d live=%d, want 2/1", w.Evidence, w.Live)
	}
	if w.OpTotals[spec.Put] != 3 {
		t.Fatalf("window puts=%d, want 3", w.OpTotals[spec.Put])
	}
	if w.MaxSizeMax != 7 {
		t.Fatalf("window maxSizeMax=%v, want 7", w.MaxSizeMax)
	}
	if w.Allocs != 2 {
		t.Fatalf("window allocs=%d, want 2", w.Allocs)
	}
	// The lifetime view is unperturbed and larger.
	full := p.SnapshotContext(ctx)
	if full.Allocs != 3 || full.Evidence != 3 {
		t.Fatalf("lifetime allocs=%d evidence=%d, want 3/3", full.Allocs, full.Evidence)
	}

	p.CloseWindow(ctx)
	if w := p.WindowSnapshot(ctx); w != nil {
		t.Fatalf("closed window still snapshots: %v", w)
	}
	// The live instance's death after close must not crash or leak.
	p.OnDeath(b)
}

// TestWindowReopenResets: reopening starts a fresh generation; instances
// from the previous window no longer match.
func TestWindowReopenResets(t *testing.T) {
	p := New()
	tbl := alloctx.NewTable()
	ctx := windowCtx(tbl, "win.test:3")

	seed := p.OnAlloc(ctx, spec.KindHashSet, spec.KindHashSet, 0)
	p.OnDeath(seed)

	p.OpenWindow(ctx)
	old := p.OnAlloc(ctx, spec.KindHashSet, spec.KindHashSet, 0)
	old.Record(spec.Add)

	p.OpenWindow(ctx) // new generation
	if w := p.WindowSnapshot(ctx); w.Evidence != 0 {
		t.Fatalf("reopened window inherited evidence: %d", w.Evidence)
	}
	p.OnDeath(old) // previous-generation death stays out
	if w := p.WindowSnapshot(ctx); w.Evidence != 0 {
		t.Fatalf("stale-generation death entered new window: %d", w.Evidence)
	}
}

// TestWindowConcurrent hammers window open/snapshot/close while instances
// allocate and die on other goroutines — the -race harness for the window
// locking.
func TestWindowConcurrent(t *testing.T) {
	p := New()
	tbl := alloctx.NewTable()
	ctx := windowCtx(tbl, "win.test:4")
	seed := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 0)
	p.OnDeath(seed)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				in := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 0)
				in.Record(spec.Put)
				in.NoteSize(i % 8)
				p.OnDeath(in)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		p.OpenWindow(ctx)
		if w := p.WindowSnapshot(ctx); w != nil && w.Evidence < 0 {
			t.Errorf("negative evidence")
		}
		p.CloseWindow(ctx)
	}
	close(stop)
	wg.Wait()
}
