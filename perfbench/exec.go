package main

import (
	"fmt"
	"time"

	"chameleon/internal/collections"
)

// siteOptions holds each site's allocation options, built once per program
// so that executing an allocation allocates no option closures.
type siteOptions [numFamilies][sitesPerFamily][]collections.Option

func newSiteOptions(sites []site) *siteOptions {
	var so siteOptions
	for i := range sites {
		s := &sites[i]
		o := []collections.Option{collections.At(s.label())}
		if s.capacity > 0 {
			o = append(o, collections.Cap(s.capacity))
		}
		so[s.fam][s.idx] = o
	}
	return &so
}

// machine executes one stream's ops through the Chameleon collections of
// one runtime. It is owned by one goroutine.
type machine struct {
	rt    *collections.Runtime
	opts  *siteOptions
	lists []*collections.List[int]
	sets  []*collections.Set[int]
	maps  []*collections.Map[int, int]
	sum   uint64

	// keys, when non-nil, records each site's allocation-context key the
	// first time the site allocates (used to join plans to planted sites).
	keys *[numFamilies][sitesPerFamily]uint64

	// lat, when non-nil, records each task's latency (ns); taskStart is
	// when the current task began.
	lat       *histogram
	taskStart time.Time

	// acc and the fold method values let Each run without a closure
	// allocation per call.
	acc               uint64
	foldList, foldSet func(int) bool
	foldMap           func(int, int) bool
}

func newMachine(rt *collections.Runtime, opts *siteOptions, st *stream) *machine {
	m := &machine{
		rt:    rt,
		opts:  opts,
		lists: make([]*collections.List[int], st.slots[famList]),
		sets:  make([]*collections.Set[int], st.slots[famSet]),
		maps:  make([]*collections.Map[int, int], st.slots[famMap]),
		sum:   17,
	}
	m.foldList = func(x int) bool { m.acc = mix(m.acc, uint64(x)); return true }
	m.foldSet = func(x int) bool { m.acc += scramble(uint64(x)); return true }
	m.foldMap = func(k, v int) bool { m.acc += scramble(uint64(k)*31 + uint64(v)); return true }
	return m
}

// run executes ops and returns the running checksum; it must agree with
// replay.run on the same ops.
func (m *machine) run(ops []op) uint64 {
	m.taskStart = time.Now()
	for i := range ops {
		o := &ops[i]
		switch o.code {
		case opListNew:
			l := newListAt(int(o.site), m.rt, m.opts[famList][o.site])
			m.lists[o.slot] = l
			m.noteKey(famList, o.site, l.ContextKey())
		case opListAdd:
			m.lists[o.slot].Add(int(o.a))
		case opListGet:
			m.sum = mix(m.sum, uint64(m.lists[o.slot].Get(int(o.a))))
		case opListContains:
			m.sum = mix(m.sum, b2u(m.lists[o.slot].Contains(int(o.a))))
		case opListEach:
			m.acc = 17
			m.lists[o.slot].Each(m.foldList)
			m.sum = mix(m.sum, m.acc)
		case opListSize:
			m.sum = mix(m.sum, uint64(m.lists[o.slot].Size()))
		case opListFree:
			m.lists[o.slot].Free()
			m.lists[o.slot] = nil
		case opSetNew:
			s := newSetAt(int(o.site), m.rt, m.opts[famSet][o.site])
			m.sets[o.slot] = s
			m.noteKey(famSet, o.site, s.ContextKey())
		case opSetAdd:
			m.sets[o.slot].Add(int(o.a))
		case opSetContains:
			m.sum = mix(m.sum, b2u(m.sets[o.slot].Contains(int(o.a))))
		case opSetEach:
			m.acc = 0
			m.sets[o.slot].Each(m.foldSet)
			m.sum = mix(m.sum, m.acc)
		case opSetFree:
			m.sets[o.slot].Free()
			m.sets[o.slot] = nil
		case opMapNew:
			mp := newMapAt(int(o.site), m.rt, m.opts[famMap][o.site])
			m.maps[o.slot] = mp
			m.noteKey(famMap, o.site, mp.ContextKey())
		case opMapPut:
			m.maps[o.slot].Put(int(o.a), int(o.b))
		case opMapGet:
			v, ok := m.maps[o.slot].Get(int(o.a))
			m.sum = mix(m.sum, mapRead(v, ok))
		case opMapEach:
			m.acc = 0
			m.maps[o.slot].Each(m.foldMap)
			m.sum = mix(m.sum, m.acc)
		case opMapSize:
			m.sum = mix(m.sum, uint64(m.maps[o.slot].Size()))
		case opMapFree:
			m.maps[o.slot].Free()
			m.maps[o.slot] = nil
		case opTask:
			if m.lat != nil {
				now := time.Now()
				m.lat.add(int64(now.Sub(m.taskStart)))
				m.taskStart = now
			}
		default:
			panic(fmt.Sprintf("perfbench: unknown op %d", o.code))
		}
	}
	return m.sum
}

func (m *machine) noteKey(f family, site uint8, key uint64) {
	if m.keys != nil && m.keys[f][site] == 0 {
		m.keys[f][site] = key
	}
}
