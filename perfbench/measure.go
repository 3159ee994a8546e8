package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// histogram is a log-linear histogram of non-negative int64 samples (ns):
// 2^histSub buckets per power of two, so a bucket is at most 1/128 of its
// value wide; quantiles interpolate within a bucket.
type histogram struct {
	counts []uint64
	n      uint64
}

const histSub = 7

func newHistogram() *histogram { return &histogram{counts: make([]uint64, 64<<histSub)} }

func histIndex(v int64) int {
	if v < 1<<histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSub - 1
	return (e+1)<<histSub | int(uint64(v)>>uint(e))&(1<<histSub-1)
}

// histBounds reports bucket i's value range [lo, hi).
func histBounds(i int) (lo, hi float64) {
	if i < 1<<histSub {
		return float64(i), float64(i + 1)
	}
	e := i>>histSub - 1
	m := i & (1<<histSub - 1)
	lo = float64(uint64(1<<histSub|m) << uint(e))
	return lo, lo + float64(uint64(1)<<uint(e))
}

func (h *histogram) reset() {
	clear(h.counts)
	h.n = 0
}

func (h *histogram) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile reports the q-quantile, interpolated within its bucket.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	lo, _ := histBounds(len(h.counts) - 1)
	return lo
}

// quantile reports the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// blockQuantiles splits xs, in run order, into consecutive blocks of n (a
// short tail joins the last block) and reports each block's q-quantile.
// xs is left in order.
func blockQuantiles(xs []float64, q float64, n int) []float64 {
	var out []float64
	for lo := 0; lo < len(xs); lo += n {
		hi := lo + n
		if len(xs)-hi < n {
			hi = len(xs)
		}
		out = append(out, quantile(append([]float64(nil), xs[lo:hi]...), q))
		if hi == len(xs) {
			break
		}
	}
	return out
}

// stealFree returns a copy of the samples taken while the host stole no
// CPU time (clean[i]) if at least least of them are, and of all samples
// otherwise, with the number of steal-free samples. Steal is the
// hypervisor running other guests on the host's CPUs: it comes in
// bursts of tens of milliseconds that stretch whichever pass they hit, and
// says nothing about the program. /proc/stat counts it in 10 ms ticks, so
// shorter bursts go unseen.
func stealFree(xs []float64, clean []bool, least int) (kept []float64, n int) {
	for i, x := range xs {
		if clean[i] {
			kept = append(kept, x)
		}
	}
	n = len(kept)
	if n < least {
		kept = append([]float64(nil), xs...)
	}
	return kept, n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spread is a timing's distribution summary for the run record.
type spread struct {
	P25, P50, P75, P90, P99 float64
	N                       int
}

func summarize(xs []float64) spread {
	ys := append([]float64(nil), xs...)
	return spread{
		P25: quantile(ys, 0.25), P50: quantile(ys, 0.5), P75: quantile(ys, 0.75),
		P90: quantile(ys, 0.9), P99: quantile(ys, 0.99), N: len(ys),
	}
}

func (h *histogram) summarize(scale float64) spread {
	return spread{
		P25: h.quantile(0.25) * scale, P50: h.quantile(0.5) * scale, P75: h.quantile(0.75) * scale,
		P90: h.quantile(0.9) * scale, P99: h.quantile(0.99) * scale, N: int(h.n),
	}
}

// goStats reads the Go runtime counters the benchmark reports.
type goStats struct {
	allocObjects, allocBytes float64
	gcCPU, gcCycles          float64
	mutexWait                float64
	sched                    *metrics.Float64Histogram
}

var goStatNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

// goReader reads goStats without allocating on the hot path (the sample
// slice is reused; only the scheduling histogram is copied).
type goReader struct{ samples []metrics.Sample }

func newGoReader() *goReader {
	r := &goReader{samples: make([]metrics.Sample, len(goStatNames))}
	for i, n := range goStatNames {
		r.samples[i].Name = n
	}
	return r
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// allocs reads only the allocation counters.
func (r *goReader) allocs() (objects, bytes float64) {
	metrics.Read(r.samples[:2])
	return sampleValue(r.samples[0]), sampleValue(r.samples[1])
}

// read reads every counter, copying the scheduling histogram.
func (r *goReader) read() goStats {
	metrics.Read(r.samples)
	st := goStats{
		allocObjects: sampleValue(r.samples[0]),
		allocBytes:   sampleValue(r.samples[1]),
		gcCPU:        sampleValue(r.samples[2]),
		gcCycles:     sampleValue(r.samples[3]),
		mutexWait:    sampleValue(r.samples[4]),
	}
	if r.samples[5].Value.Kind() == metrics.KindFloat64Histogram {
		h := r.samples[5].Value.Float64Histogram()
		st.sched = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return st
}

// bucketQuantile reports the q-quantile of a runtime/metrics histogram's
// counts (buckets are its boundaries), interpolated within a bucket.
func bucketQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c > 0 && seen+float64(c) >= rank {
			lo, hi := buckets[i], buckets[i+1]
			if math.IsInf(hi, 1) {
				return lo
			}
			if math.IsInf(lo, -1) {
				return hi
			}
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return 0
}

// liveHeap forces two collections (the second clears sync.Pool victims)
// and reports the live Go heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return sampleValue(s[0])
}

// host describes the machine a run measured on.
type host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	OS         string `json:"os"`
}

func readHost() host {
	h := host{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// hostSteal reports the host's cumulative CPU steal time in seconds (all
// CPUs; /proc/stat counts in 1/100 s), or -1 where it cannot be read. A
// run that measured while the hypervisor was stealing time shows it here.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100
}

// probeSink keeps the probes' results observable so the compiler cannot
// drop their work.
var probeSink uint64

// cpuProbe is a fixed CPU-bound loop that touches no memory.
func cpuProbe() time.Duration {
	t0 := time.Now()
	x := xorshift(0x9E3779B97F4A7C15)
	var acc uint64
	for i := 0; i < 4_000_000; i++ {
		acc += x.next() >> 7
	}
	probeSink += acc
	return time.Since(t0)
}

type probeNode struct {
	next *probeNode
	val  [6]uint64
}

// memProbe is a fixed memory-churn kernel: it builds and walks linked
// lists of small heap objects, so its time tracks allocation, cache and GC
// behaviour of the host.
func memProbe() time.Duration {
	t0 := time.Now()
	var acc uint64
	for round := 0; round < 8; round++ {
		var head *probeNode
		for i := 0; i < 40_000; i++ {
			head = &probeNode{next: head, val: [6]uint64{uint64(i)}}
		}
		for n := head; n != nil; n = n.next {
			acc += n.val[0]
		}
	}
	probeSink += acc
	return time.Since(t0)
}

// hostProbes times both probes every probeEvery of a run, between passes,
// so the run record shows when the host slowed down.
type hostProbes struct {
	cpu, mem []float64 // ms, in run order
	next     time.Time
}

const probeEvery = 2 * time.Second

func newHostProbes() *hostProbes {
	// Room for a minute of readings, so the slices do not grow while
	// retained_mb is measured.
	return &hostProbes{cpu: make([]float64, 0, 64), mem: make([]float64, 0, 64)}
}

// tick runs both probes if probeEvery has passed since the last reading.
func (p *hostProbes) tick() {
	if time.Now().Before(p.next) {
		return
	}
	p.cpu = append(p.cpu, float64(cpuProbe())/1e6)
	p.mem = append(p.mem, float64(memProbe())/1e6)
	p.next = time.Now().Add(probeEvery)
}

// print writes the readings to the run record.
func (p *hostProbes) print(out io.Writer) {
	for _, r := range []struct {
		name string
		ms   []float64
	}{{"host.cpu_probe_ms", p.cpu}, {"host.mem_probe_ms", p.mem}} {
		fmt.Fprintf(out, "# probes during the run, every %v: %s", probeEvery, r.name)
		for _, v := range r.ms {
			fmt.Fprintf(out, " %.2f", v)
		}
		fmt.Fprintln(out)
	}
}

// probeMedian runs a probe five times and reports the median in ms.
func probeMedian(probe func() time.Duration) float64 {
	xs := make([]float64, 5)
	for i := range xs {
		xs[i] = float64(probe()) / 1e6
	}
	return median(xs)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
