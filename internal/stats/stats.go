// Package stats provides the streaming statistics used by the Chameleon
// semantic profiler: running mean/variance (Welford's algorithm), min/max
// tracking, and small histograms. All aggregates in paper Table 1
// ("Avg/Var operation count", "Avg/Var of maximal size") are computed with
// these types so that profiling never needs to retain per-instance samples.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates a stream of float64 observations and reports count,
// mean, variance and standard deviation in O(1) space. The zero value is an
// empty accumulator ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Merge combines another accumulator into w using Chan et al.'s parallel
// update, so per-instance accumulators can be folded into the per-context
// accumulator when an instance dies (the paper's finalizer aggregation).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.mean += delta * float64(o.n) / float64(n)
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// FromMoments reconstructs an accumulator from its summary moments: the
// observation count, mean, population standard deviation, and the observed
// extrema. It is the inverse of (Count, Mean, StdDev, Min, Max), up to
// floating-point rounding of stddev², and exists so fleet-profile
// aggregation can rebuild each source's per-context accumulator from a
// serialized snapshot and combine sources through Merge — the same Chan et
// al. update the profiler uses — instead of averaging averages. n <= 0
// reports an empty accumulator.
func FromMoments(n int64, mean, stddev, min, max float64) Welford {
	if n <= 0 {
		return Welford{}
	}
	return Welford{n: n, mean: mean, m2: stddev * stddev * float64(n), min: min, max: max}
}

// Count reports the number of observations.
func (w *Welford) Count() int64 { return w.n }

// Mean reports the arithmetic mean, or 0 for an empty accumulator.
func (w *Welford) Mean() float64 { return w.mean }

// Min reports the smallest observation, or 0 for an empty accumulator.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.min
}

// Max reports the largest observation, or 0 for an empty accumulator.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.max
}

// Variance reports the population variance, or 0 with fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev reports the population standard deviation. This is the paper's
// stability measure (Definition 3.1): a metric is stable in a context when
// its standard deviation is below a per-metric threshold.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// String formats the accumulator as "n=.. mean=.. sd=.. min=.. max=..".
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.0f max=%.0f",
		w.n, w.Mean(), w.StdDev(), w.Min(), w.Max())
}

// Histogram is a sparse integer histogram (value -> count). Chameleon uses
// it for collection-size distributions, which the paper notes are "often
// biased around a single value (e.g., 1), with a long tail" (§3.3.1).
type Histogram struct {
	counts map[int64]int64
	total  int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int64]int64)}
}

// Add records one observation of v.
func (h *Histogram) Add(v int64) {
	if h.counts == nil {
		h.counts = make(map[int64]int64)
	}
	h.counts[v]++
	h.total++
}

// AddN records n observations of v in one update (the deserialization
// form of Add; n <= 0 is a no-op).
func (h *Histogram) AddN(v, n int64) {
	if n <= 0 {
		return
	}
	if h.counts == nil {
		h.counts = make(map[int64]int64)
	}
	h.counts[v] += n
	h.total += n
}

// Merge folds another histogram into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	if h.counts == nil {
		h.counts = make(map[int64]int64)
	}
	for v, c := range o.counts {
		h.counts[v] += c
	}
	h.total += o.total
}

// Count reports the total number of observations.
func (h *Histogram) Count() int64 { return h.total }

// CountOf reports how many times v was observed.
func (h *Histogram) CountOf(v int64) int64 { return h.counts[v] }

// Mode reports the most frequent value and its count; ties break toward the
// smaller value. An empty histogram reports (0, 0).
func (h *Histogram) Mode() (value, count int64) {
	first := true
	for v, c := range h.counts {
		if first || c > count || (c == count && v < value) {
			value, count = v, c
			first = false
		}
	}
	return value, count
}

// Quantile reports the smallest value v such that at least q (0..1) of the
// observations are <= v. An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	values := make([]int64, 0, len(h.counts))
	for v := range h.counts {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	need := int64(math.Ceil(q * float64(h.total)))
	if need == 0 {
		need = 1
	}
	var cum int64
	for _, v := range values {
		cum += h.counts[v]
		if cum >= need {
			return v
		}
	}
	return values[len(values)-1]
}

// Values reports the distinct observed values in ascending order.
func (h *Histogram) Values() []int64 {
	values := make([]int64, 0, len(h.counts))
	for v := range h.counts {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	return values
}

// Fraction reports the fraction of observations equal to v.
func (h *Histogram) Fraction(v int64) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.total)
}

// Ratio returns a/b, or 0 when b is 0. It is the guarded division used for
// operation-count ratios in rule conditions (e.g. #contains/#allOps).
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Percent returns 100*part/whole, or 0 when whole is 0.
func Percent(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}
