package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Count() != 0 || w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Fatalf("empty accumulator not all-zero: %v", w.String())
	}
	if w.Min() != 0 || w.Max() != 0 {
		t.Fatalf("empty min/max not zero")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.Count() != 1 {
		t.Fatalf("count = %d, want 1", w.Count())
	}
	if w.Mean() != 42 || w.Min() != 42 || w.Max() != 42 {
		t.Fatalf("mean/min/max wrong: %s", w.String())
	}
	if w.Variance() != 0 {
		t.Fatalf("variance of one sample should be 0")
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if got := w.Mean(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("mean = %v, want 5", got)
	}
	if got := w.Variance(); !almostEqual(got, 4, 1e-12) {
		t.Errorf("variance = %v, want 4", got)
	}
	if got := w.StdDev(); !almostEqual(got, 2, 1e-12) {
		t.Errorf("stddev = %v, want 2", got)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

// Property: merging two accumulators is equivalent to accumulating the
// concatenated stream.
func TestWelfordMergeProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(in []float64) []float64 {
			out := make([]float64, 0, len(in))
			for _, v := range in {
				if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
					out = append(out, v)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a, b, all Welford
		for _, x := range xs {
			a.Add(x)
			all.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
			all.Add(y)
		}
		a.Merge(b)
		if a.Count() != all.Count() {
			return false
		}
		if all.Count() == 0 {
			return true
		}
		return almostEqual(a.Mean(), all.Mean(), 1e-6) &&
			almostEqual(a.Variance(), all.Variance(), 1e-6) &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmptySides(t *testing.T) {
	var a, empty Welford
	a.Add(1)
	a.Add(3)
	before := a.String()
	a.Merge(empty)
	if a.String() != before {
		t.Fatalf("merging empty changed accumulator: %s -> %s", before, a.String())
	}
	var c Welford
	c.Merge(a)
	if c.String() != a.String() {
		t.Fatalf("merge into empty lost data: %s vs %s", c.String(), a.String())
	}
}

// Property: stddev is shift-invariant (within fp tolerance) and count grows
// by one per Add.
func TestWelfordShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a, b Welford
	const shift = 1000.0
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 50
		a.Add(x)
		b.Add(x + shift)
	}
	if !almostEqual(a.StdDev(), b.StdDev(), 1e-9) {
		t.Fatalf("stddev not shift invariant: %v vs %v", a.StdDev(), b.StdDev())
	}
	if !almostEqual(a.Mean()+shift, b.Mean(), 1e-9) {
		t.Fatalf("mean shift wrong: %v vs %v", a.Mean()+shift, b.Mean())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if v, c := h.Mode(); v != 0 || c != 0 {
		t.Fatalf("empty mode = (%d,%d), want (0,0)", v, c)
	}
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty quantile should be 0")
	}
	for _, v := range []int64{1, 1, 1, 2, 5, 5, 9} {
		h.Add(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if v, c := h.Mode(); v != 1 || c != 3 {
		t.Fatalf("mode = (%d,%d), want (1,3)", v, c)
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("median = %d, want 2", got)
	}
	if got := h.Quantile(1.0); got != 9 {
		t.Fatalf("q1.0 = %d, want 9", got)
	}
	if got := h.Quantile(0.0); got != 1 {
		t.Fatalf("q0.0 = %d, want 1", got)
	}
	if got := h.Fraction(1); !almostEqual(got, 3.0/7.0, 1e-12) {
		t.Fatalf("fraction(1) = %v", got)
	}
	if got := h.Values(); len(got) != 4 || got[0] != 1 || got[3] != 9 {
		t.Fatalf("values = %v", got)
	}
}

func TestHistogramModeTieBreaksLow(t *testing.T) {
	h := NewHistogram()
	h.Add(7)
	h.Add(3)
	if v, _ := h.Mode(); v != 3 {
		t.Fatalf("tie should break toward smaller value, got %d", v)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Add(1)
	a.Add(2)
	b.Add(2)
	b.Add(3)
	a.Merge(b)
	if a.Count() != 4 || a.CountOf(2) != 2 || a.CountOf(3) != 1 {
		t.Fatalf("merge wrong: count=%d", a.Count())
	}
	a.Merge(nil) // must not panic
	if a.Count() != 4 {
		t.Fatalf("merge(nil) changed count")
	}
}

// Property: quantile is monotone in q and always returns an observed value.
func TestHistogramQuantileProperty(t *testing.T) {
	f := func(raw []int8, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		q1, q2 = math.Abs(math.Mod(q1, 1)), math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		h := NewHistogram()
		seen := map[int64]bool{}
		for _, v := range raw {
			h.Add(int64(v))
			seen[int64(v)] = true
		}
		a, b := h.Quantile(q1), h.Quantile(q2)
		return a <= b && seen[a] && seen[b]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatioAndPercent(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatalf("Ratio(_, 0) must be 0")
	}
	if Ratio(6, 3) != 2 {
		t.Fatalf("Ratio(6,3) = %v", Ratio(6, 3))
	}
	if Percent(1, 0) != 0 {
		t.Fatalf("Percent(_, 0) must be 0")
	}
	if Percent(25, 100) != 25 {
		t.Fatalf("Percent(25,100) = %v", Percent(25, 100))
	}
}

func TestWelfordMergeBranches(t *testing.T) {
	// o extends both extremes of w.
	var w, o Welford
	w.Add(5)
	w.Add(6)
	o.Add(1)
	o.Add(10)
	w.Merge(o)
	if w.Min() != 1 || w.Max() != 10 || w.Count() != 4 {
		t.Fatalf("merge extremes: %s", w.String())
	}
	// o inside w's range: extremes unchanged.
	var w2, o2 Welford
	w2.Add(0)
	w2.Add(100)
	o2.Add(50)
	w2.Merge(o2)
	if w2.Min() != 0 || w2.Max() != 100 {
		t.Fatalf("merge interior changed extremes: %s", w2.String())
	}
}

func TestHistogramZeroValueAndEdges(t *testing.T) {
	var h Histogram // zero value, counts map nil
	h.Add(3)        // must allocate lazily
	if h.Count() != 1 || h.CountOf(3) != 1 {
		t.Fatalf("zero-value histogram broken")
	}
	var h2 Histogram
	h2.Merge(&h) // merge into zero value
	if h2.CountOf(3) != 1 {
		t.Fatalf("merge into zero value broken")
	}
	if h2.Fraction(99) != 0 {
		t.Fatalf("fraction of absent value")
	}
	var empty Histogram
	if empty.Fraction(1) != 0 {
		t.Fatalf("fraction on empty")
	}
	// Quantile clamping.
	if h.Quantile(-0.5) != 3 || h.Quantile(2.0) != 3 {
		t.Fatalf("quantile clamping broken")
	}
}

func TestFromMomentsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		var w Welford
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			w.Add(rng.Float64() * 100)
		}
		r := FromMoments(w.Count(), w.Mean(), w.StdDev(), w.Min(), w.Max())
		if r.Count() != w.Count() || r.Min() != w.Min() || r.Max() != w.Max() {
			t.Fatalf("count/min/max changed: %s vs %s", r.String(), w.String())
		}
		if !almostEqual(r.Mean(), w.Mean(), 1e-12) || !almostEqual(r.Variance(), w.Variance(), 1e-9) {
			t.Fatalf("moments changed: %s vs %s", r.String(), w.String())
		}
	}
}

func TestFromMomentsEmpty(t *testing.T) {
	r := FromMoments(0, 5, 2, 1, 9)
	if r.Count() != 0 || r.Mean() != 0 || r.Min() != 0 || r.Max() != 0 {
		t.Fatalf("n<=0 should report an empty accumulator, got %s", r.String())
	}
}

// TestFromMomentsMergeMatchesPooled is the property fleet aggregation
// relies on: rebuilding two sources from their serialized moments and
// merging them must equal pooling the raw observations.
func TestFromMomentsMergeMatchesPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	err := quick.Check(func(na, nb uint8) bool {
		var a, b, pooled Welford
		for i := 0; i < int(na)+1; i++ {
			x := rng.Float64() * 50
			a.Add(x)
			pooled.Add(x)
		}
		for i := 0; i < int(nb)+1; i++ {
			x := 30 + rng.Float64()*50
			b.Add(x)
			pooled.Add(x)
		}
		m := FromMoments(a.Count(), a.Mean(), a.StdDev(), a.Min(), a.Max())
		m.Merge(FromMoments(b.Count(), b.Mean(), b.StdDev(), b.Min(), b.Max()))
		return m.Count() == pooled.Count() &&
			almostEqual(m.Mean(), pooled.Mean(), 1e-9) &&
			almostEqual(m.Variance(), pooled.Variance(), 1e-6) &&
			m.Min() == pooled.Min() && m.Max() == pooled.Max()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
