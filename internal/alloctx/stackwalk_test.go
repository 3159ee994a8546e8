package alloctx

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// twin holds a table on the frame-pointer path (amd64) and one forced onto
// runtime.Callers, so one call instruction can capture through both.
type twin struct{ fast, slow *Table }

func newTwin() twin {
	slow := NewTable()
	slow.callersOnly = true
	return twin{fast: NewTable(), slow: slow}
}

// capture captures twice through each table from one call instruction —
// the fast table's second capture is a memo hit once the first memoized
// the stack — and reports any capture that differs from the slow table's
// first in key, label or frames. skip counts from capture's caller.
//
//go:noinline
func (w twin) capture(t *testing.T, skip, depth int) *Context {
	var got [4]*Context
	for i := range got {
		tab := w.slow
		if i%2 == 1 {
			tab = w.fast
		}
		got[i] = tab.CaptureDynamic(skip+1, depth)
	}
	want := got[0]
	for _, c := range got[1:] {
		if c.Key() != want.Key() || c.label != want.label || c.String() != want.String() ||
			!reflect.DeepEqual(c.Frames(), want.Frames()) {
			t.Errorf("skip=%d depth=%d: frame-pointer capture %q (key %#x) != runtime.Callers capture %q (key %#x)",
				skip, depth, c, c.Key(), want, want.Key())
		}
	}
	return want
}

// check requires equal Len() and, on amd64, that the fast table memoized
// stacks at all, so the comparison above is not between two slow paths.
func (w twin) check(t *testing.T) {
	t.Helper()
	if a, b := w.fast.Len(), w.slow.Len(); a != b {
		t.Errorf("Len: frame-pointer table %d, runtime.Callers table %d", a, b)
	}
	if m := w.fast.stacks.Load(); framePointers && (m == nil || m.n == 0) {
		t.Errorf("frame-pointer table memoized no stack")
	}
	if w.slow.stacks.Load() != nil {
		t.Errorf("runtime.Callers table memoized a stack")
	}
}

// grid captures every skip 0-4 x depth 1-8 from one call instruction, twice.
//
//go:noinline
func (w twin) grid(t *testing.T) {
	for round := 0; round < 2; round++ {
		for skip := 0; skip <= 4; skip++ {
			for depth := 1; depth <= 8; depth++ {
				w.capture(t, skip, depth)
			}
		}
	}
}

// deep recurses n physical frames, each with a padded frame so the stack
// grows (and is copied) as it goes, then runs f.
//
//go:noinline
func deep(n int, f func()) {
	var pad [512]byte
	pad[n%len(pad)] = byte(n)
	if n > 0 {
		deep(n-1, f)
	} else {
		f()
	}
	if pad[n%len(pad)] != byte(n) {
		panic("stack pad corrupted")
	}
}

// Small enough to inline into one another and into their callers.
func inl1(w twin, t *testing.T, s, d int) *Context { return inl2(w, t, s, d) }
func inl2(w twin, t *testing.T, s, d int) *Context { return inl3(w, t, s, d) }
func inl3(w twin, t *testing.T, s, d int) *Context { return w.capture(t, s, d) }

func generic[T any](w twin, t *testing.T, s, d int) *Context { return w.capture(t, s, d) }

type box[T any] struct{ v T }

func (b box[T]) via(w twin, t *testing.T, s, d int) *Context { return w.capture(t, s, d) }

type capturer interface {
	via(w twin, t *testing.T, s, d int) *Context
}

type valueRecv struct{ n int }

//go:noinline
func (v valueRecv) via(w twin, t *testing.T, s, d int) *Context { return w.capture(t, s, d) }

type ptrRecv struct{ n int }

//go:noinline
func (p *ptrRecv) via(w twin, t *testing.T, s, d int) *Context { return w.capture(t, s, d) }

type viaFunc = func(w twin, t *testing.T, s, d int) *Context

// callIface and callFunc hide the callee from the compiler, so the call
// goes through an interface method table or a func value and any wrapper
// stays a frame of its own.
//
//go:noinline
func callIface(c capturer, w twin, t *testing.T, s, d int) *Context { return c.via(w, t, s, d) }

//go:noinline
func callFunc(f viaFunc, w twin, t *testing.T, s, d int) *Context { return f(w, t, s, d) }

// hop is a chain of frames runtime.Callers mostly elides: each level calls
// the next through an interface method value, so a -fm wrapper and the
// (*hop).via wrapper sit between every two hop.via frames.
type hop struct{ n int }

//go:noinline
func (h hop) via(w twin, t *testing.T, s, d int) *Context {
	if h.n == 0 {
		return w.capture(t, s, d)
	}
	f := hide(hop{h.n - 1}).via
	return f(w, t, s, d)
}

//go:noinline
func hide(c capturer) capturer { return c }

// hops captures through chains of 0-6 hops, every skip 0-4 x depth 1-8.
func hops(w twin, t *testing.T) {
	for n := 0; n <= 6; n++ {
		for skip := 0; skip <= 4; skip++ {
			for depth := 1; depth <= 8; depth++ {
				hop{n}.via(w, t, skip, depth)
			}
		}
	}
}

// calls runs every call shape once at every depth 1-8, skip 0-4. The
// wrapper frames ((*valueRecv).via, the method values' -fm functions,
// generic instantiations) are frames runtime.Callers elides, so the walk
// covers fewer logical frames than physical ones.
func calls(w twin, t *testing.T) {
	for skip := 0; skip <= 4; skip++ {
		for depth := 1; depth <= 8; depth++ {
			inl1(w, t, skip, depth)
			generic[string](w, t, skip, depth)
			box[int]{3}.via(w, t, skip, depth)
			callFunc(generic[int], w, t, skip, depth)
			callFunc(box[string]{"x"}.via, w, t, skip, depth)
			callFunc(valueRecv{4}.via, w, t, skip, depth)
			callFunc((&ptrRecv{5}).via, w, t, skip, depth)
			callIface(valueRecv{6}, w, t, skip, depth)
			callIface(&valueRecv{7}, w, t, skip, depth)
			callIface(&ptrRecv{8}, w, t, skip, depth)
			callIface(box[int]{9}, w, t, skip, depth)
		}
	}
}

// TestFramePointerPathMatchesCallers holds the frame-pointer capture path
// against runtime.Callers: from the same call instruction both must intern
// the same context (key, label, frames) and the same number of contexts.
// The memo key must include skip and depth: the grid captures stacks of
// equal walk length (skip+depth) at different skips from one physical stack.
func TestFramePointerPathMatchesCallers(t *testing.T) {
	t.Run("grid", func(t *testing.T) {
		w := newTwin()
		w.grid(t)
		deep(24, func() { w.grid(t) })
		w.check(t)
	})
	t.Run("call-shapes", func(t *testing.T) {
		w := newTwin()
		calls(w, t)
		deep(24, func() { calls(w, t) })
		hops(w, t)
		deep(24, func() { hops(w, t) })
		w.check(t)
	})
	t.Run("recursion", func(t *testing.T) {
		// Capture at every level on the way down, so the stack grows and
		// moves between captures, and again at the bottom.
		w := newTwin()
		var rec func(n int)
		rec = func(n int) {
			var pad [256]byte
			pad[n] = 1
			for _, d := range []int{1, 3, 8} {
				w.capture(t, 0, d)
				inl1(w, t, 2, d)
			}
			if n > 0 {
				rec(n - 1)
			}
			if pad[n] != 1 {
				panic("stack pad corrupted")
			}
		}
		rec(64)
		rec(64)
		w.check(t)
	})
	t.Run("fresh-goroutines", func(t *testing.T) {
		// A new goroutine's stack is a few frames deep: shallower than
		// skip+depth, so the walk reaches its outermost frame.
		w := newTwin()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				w.capture(t, 0, 8)
				w.capture(t, 1, 8)
			}()
			go goCapture(w, t, &wg, i) // through a go statement's wrapper
		}
		wg.Wait()
		w.check(t)
	})
	t.Run("huge-frame", func(t *testing.T) {
		// A frame over a megabyte makes the walk give up: every capture
		// takes runtime.Callers and nothing is memoized.
		w := newTwin()
		hugeFrame(w, t)
		if w.fast.stacks.Load() != nil {
			t.Errorf("memoized a stack the walk gave up on")
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		// The memo is shared: goroutines racing first captures of the same
		// stacks must still agree with runtime.Callers.
		w := newTwin()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				deep(i, func() {
					w.grid(t)
					calls(w, t)
				})
			}()
		}
		wg.Wait()
		w.check(t)
	})
}

// hugeFrame captures from below a frame of 1.1 MB, more than a walk
// accepts between two frame pointers.
//
//go:noinline
func hugeFrame(w twin, t *testing.T) {
	var a, b, c, d, e, f, g, h, i, j, k [100 << 10]byte
	for _, p := range []*[100 << 10]byte{&a, &b, &c, &d, &e, &f, &g, &h, &i, &j, &k} {
		p[len(p)-1] = 1
	}
	for skip := 0; skip <= 2; skip++ {
		w.capture(t, skip, 3)
	}
	if a[len(a)-1]+k[len(k)-1] != 2 {
		panic("stack frame corrupted")
	}
}

//go:noinline
func goCapture(w twin, t *testing.T, wg *sync.WaitGroup, i int) {
	defer wg.Done()
	for depth := 1; depth <= 8; depth++ {
		w.capture(t, i%2, depth)
	}
}

// BenchmarkCaptureDynamic times a repeat capture on each path at partial
// context depths 1 to 8 (skip 2, as the collections runtime captures).
func BenchmarkCaptureDynamic(b *testing.B) {
	for _, path := range []string{"frame-pointers", "callers"} {
		for _, depth := range []int{1, 2, 3, 8} {
			b.Run(fmt.Sprintf("%s/depth=%d", path, depth), func(b *testing.B) {
				tab := NewTable()
				tab.callersOnly = path == "callers"
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tab.CaptureDynamic(2, depth)
				}
			})
		}
	}
}
