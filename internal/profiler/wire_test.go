package profiler

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"chameleon/internal/alloctx"
	"chameleon/internal/heap"
	"chameleon/internal/spec"
	"chameleon/internal/stats"
)

// This file is the reference the snapshot codec is tested against: the
// wire struct the record body was once encoded from with encoding/json,
// and the validation and conversion its decoded form went through. The
// codec must write the bytes json.Marshal writes for profileWire, and
// accept a body only when refDecode does, with the same values.

// profileWire is the full serialization shape of a Profile: everything the
// rule engine needs to run offline, including per-op means and deviations.
type profileWire struct {
	Context       string             `json:"context"`
	Declared      string             `json:"declared"`
	Impl          string             `json:"impl"`
	Allocs        int64              `json:"allocs"`
	Live          int64              `json:"live"`
	Evidence      int64              `json:"evidence,omitempty"`
	Ops           map[string]int64   `json:"ops,omitempty"`
	OpsMean       map[string]float64 `json:"opsMean,omitempty"`
	OpsStdDev     map[string]float64 `json:"opsStdDev,omitempty"`
	MaxSizeAvg    float64            `json:"maxSizeAvg"`
	MaxSizeStdDev float64            `json:"maxSizeStdDev"`
	MaxSizeMax    float64            `json:"maxSizeMax"`
	FinalSizeAvg  float64            `json:"finalSizeAvg"`
	InitialCapAvg float64            `json:"initialCapAvg"`
	// SizeHist is the per-instance maximal-size distribution
	// (value -> instance count). Rules reading emptyFraction or
	// sizeMode depend on it; a snapshot without it silently reports
	// every context as never-empty when evaluated offline.
	SizeHist       map[string]int64 `json:"sizeHist,omitempty"`
	EmptyIterators int64            `json:"emptyIterators,omitempty"`
	MaxLive        int64            `json:"maxLive"`
	MaxUsed        int64            `json:"maxUsed"`
	MaxCore        int64            `json:"maxCore"`
	TotLive        int64            `json:"totLive"`
	TotUsed        int64            `json:"totUsed"`
	TotCore        int64            `json:"totCore"`
	TotObjs        int64            `json:"totObjects,omitempty"`
	MaxObjs        int64            `json:"maxObjects,omitempty"`
	GCCycles       int64            `json:"gcCycles"`
	Potential      int64            `json:"potential"`
}

func (p *Profile) toWire() profileWire {
	w := profileWire{
		Context:        p.Context.String(),
		Declared:       p.Declared.String(),
		Impl:           p.Impl.String(),
		Allocs:         p.Allocs,
		Live:           p.Live,
		Evidence:       p.Evidence,
		Ops:            map[string]int64{},
		OpsMean:        map[string]float64{},
		OpsStdDev:      map[string]float64{},
		MaxSizeAvg:     p.MaxSizeAvg,
		MaxSizeStdDev:  p.MaxSizeStdDev,
		MaxSizeMax:     p.MaxSizeMax,
		FinalSizeAvg:   p.FinalSizeAvg,
		InitialCapAvg:  p.InitialCapAvg,
		EmptyIterators: p.EmptyIterators,
		MaxLive:        p.MaxHeap.Live,
		MaxUsed:        p.MaxHeap.Used,
		MaxCore:        p.MaxHeap.Core,
		TotLive:        p.TotHeap.Live,
		TotUsed:        p.TotHeap.Used,
		TotCore:        p.TotHeap.Core,
		TotObjs:        p.TotObjs,
		MaxObjs:        p.MaxObjs,
		GCCycles:       p.GCCycles,
		Potential:      p.Potential(),
	}
	for op := spec.Op(0); op < spec.NumOps; op++ {
		if p.OpTotals[op] != 0 {
			w.Ops[op.String()] = p.OpTotals[op]
		}
		if p.OpMean[op] != 0 {
			w.OpsMean[op.String()] = p.OpMean[op]
		}
		if p.OpStdDev[op] != 0 {
			w.OpsStdDev[op.String()] = p.OpStdDev[op]
		}
	}
	if p.SizeHist != nil && p.SizeHist.Count() > 0 {
		w.SizeHist = map[string]int64{}
		for _, v := range p.SizeHist.Values() {
			w.SizeHist[strconv.FormatInt(v, 10)] = p.SizeHist.CountOf(v)
		}
	}
	return w
}

// validate rejects records no run of this profiler could have produced:
// NaN/Inf or negative statistics, overflowing counts, absurd sizes, more
// live than allocated instances, or unbounded context strings. Kind and
// op names are validated separately in toProfile (they need the
// vocabulary tables).
func (w profileWire) validate() error {
	counts := [...]struct {
		name string
		v    int64
	}{
		{"allocs", w.Allocs}, {"live", w.Live}, {"evidence", w.Evidence},
		{"emptyIterators", w.EmptyIterators},
		{"maxLive", w.MaxLive}, {"maxUsed", w.MaxUsed}, {"maxCore", w.MaxCore},
		{"totLive", w.TotLive}, {"totUsed", w.TotUsed}, {"totCore", w.TotCore},
		{"totObjects", w.TotObjs}, {"maxObjects", w.MaxObjs}, {"gcCycles", w.GCCycles},
	}
	for _, c := range counts {
		if c.v < 0 || c.v > maxWireCount {
			return fmt.Errorf("profiler: field %s out of range: %d", c.name, c.v)
		}
	}
	floats := [...]struct {
		name string
		v    float64
	}{
		{"maxSizeAvg", w.MaxSizeAvg}, {"maxSizeStdDev", w.MaxSizeStdDev},
		{"maxSizeMax", w.MaxSizeMax}, {"finalSizeAvg", w.FinalSizeAvg},
		{"initialCapAvg", w.InitialCapAvg},
	}
	for _, f := range floats {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 || f.v > maxWireSize {
			return fmt.Errorf("profiler: field %s out of range: %v", f.name, f.v)
		}
	}
	for name, v := range w.Ops {
		if v < 0 || v > maxWireCount {
			return fmt.Errorf("profiler: op count %s out of range: %d", name, v)
		}
	}
	for name, v := range w.OpsMean {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > maxWireSize {
			return fmt.Errorf("profiler: op mean %s out of range: %v", name, v)
		}
	}
	for name, v := range w.OpsStdDev {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > maxWireSize {
			return fmt.Errorf("profiler: op stddev %s out of range: %v", name, v)
		}
	}
	if len(w.SizeHist) > maxWireHistBuckets {
		return fmt.Errorf("profiler: size histogram has %d buckets, exceeds the reader cap", len(w.SizeHist))
	}
	for name, v := range w.SizeHist {
		size, err := strconv.ParseInt(name, 10, 64)
		if err != nil || size < 0 || float64(size) > maxWireSize {
			return fmt.Errorf("profiler: size histogram bucket %q out of range", name)
		}
		if v < 0 || v > maxWireCount {
			return fmt.Errorf("profiler: size histogram count for %q out of range: %d", name, v)
		}
	}
	if w.Live > w.Allocs {
		return fmt.Errorf("profiler: live %d exceeds allocs %d", w.Live, w.Allocs)
	}
	if w.Context == "" || len(w.Context) > maxWireContext {
		return fmt.Errorf("profiler: context string length %d out of range", len(w.Context))
	}
	return nil
}

func (w profileWire) toProfile(contexts *alloctx.Table) (*Profile, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	declared, ok := spec.KindByName(w.Declared)
	if !ok {
		return nil, fmt.Errorf("profiler: unknown declared kind %q", w.Declared)
	}
	impl, ok := spec.KindByName(w.Impl)
	if !ok {
		return nil, fmt.Errorf("profiler: unknown impl kind %q", w.Impl)
	}
	p := &Profile{
		Context:        contexts.Static(w.Context),
		Declared:       declared,
		Impl:           impl,
		Allocs:         w.Allocs,
		Live:           w.Live,
		Evidence:       w.Evidence,
		MaxSizeAvg:     w.MaxSizeAvg,
		MaxSizeStdDev:  w.MaxSizeStdDev,
		MaxSizeMax:     w.MaxSizeMax,
		FinalSizeAvg:   w.FinalSizeAvg,
		InitialCapAvg:  w.InitialCapAvg,
		SizeHist:       stats.NewHistogram(),
		EmptyIterators: w.EmptyIterators,
		MaxHeap:        heap.Footprint{Live: w.MaxLive, Used: w.MaxUsed, Core: w.MaxCore},
		TotHeap:        heap.Footprint{Live: w.TotLive, Used: w.TotUsed, Core: w.TotCore},
		TotObjs:        w.TotObjs,
		MaxObjs:        w.MaxObjs,
		GCCycles:       w.GCCycles,
	}
	resolve := func(name string) (spec.Op, error) {
		op, ok := spec.OpByName(name)
		if !ok {
			return 0, fmt.Errorf("profiler: unknown operation %q", name)
		}
		return op, nil
	}
	for name, v := range w.Ops {
		op, err := resolve(name)
		if err != nil {
			return nil, err
		}
		p.OpTotals[op] = v
	}
	for name, v := range w.OpsMean {
		op, err := resolve(name)
		if err != nil {
			return nil, err
		}
		p.OpMean[op] = v
	}
	for name, v := range w.OpsStdDev {
		op, err := resolve(name)
		if err != nil {
			return nil, err
		}
		p.OpStdDev[op] = v
	}
	for name, v := range w.SizeHist {
		size, _ := strconv.ParseInt(name, 10, 64) // validated above
		p.SizeHist.AddN(size, v)
	}
	return p, nil
}

// refDecode reads a record body the way the reader did with encoding/json:
// unknown fields and any byte after the object rejected, then validated
// and converted by toProfile.
func refDecode(body []byte, contexts *alloctx.Table) (*Profile, error) {
	var w profileWire
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	if n := dec.InputOffset(); n != int64(len(body)) {
		return nil, fmt.Errorf("decoding profile: %d stray bytes after the profile", int64(len(body))-n)
	}
	return w.toProfile(contexts)
}
