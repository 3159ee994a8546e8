package main

import "fmt"

// The benchmark's traffic generator: seeded collection traffic. A
// program is a list of ops over numbered slots; the same seed always yields
// the same ops. The executor (exec.go) runs ops through the Chameleon
// collections, and replay runs them on plain Go slices and maps, so every
// result has a reference that involves no Chameleon code.

// family is a declared collection kind; each has sitesPerFamily call sites.
type family uint8

const (
	famList family = iota // declared ArrayList
	famSet                // declared HashSet
	famMap                // declared HashMap
	numFamilies
)

var familyNames = [numFamilies]string{"list", "set", "map"}

// role is the usage pattern the generator plants at a site: one of the
// paper's Table 2 pathologies, a phase-shifting site, or a control.
type role uint8

const (
	roleEmptyList     role = iota // mostly-empty lists -> LazyArrayList
	roleOversizedList             // short-lived, oversized capacity, mostly empty -> LazyArrayList
	roleSingletonList             // exactly one element -> SingletonList
	roleGrowList                  // outgrows the default capacity -> setCapacity
	rolePhaseList                 // empty in the first half of a run, filled in the second
	roleStableList                // retained, large, well used (control)
	roleEmptySet                  // mostly-empty sets -> LazySet
	roleSmallSet                  // small sets -> ArraySet
	roleLargeSet                  // retained, large, stable, contains-heavy (control)
	roleSmallMap                  // small get-dominated maps -> ArrayMap
	roleEmptyMap                  // mostly-empty maps -> LazyMap
	roleLargeMap                  // retained, large (control)
	numRoles
)

var roleNames = [numRoles]string{
	"empty-list", "oversized-list", "singleton-list", "grow-list", "phase-list", "stable-list",
	"empty-set", "small-set", "large-set", "small-map", "empty-map", "large-map",
}

// roster is how many of each family's sites play each role. The counts are
// fixed so that every seed plants the same amount of each pathology; the
// seed decides which sites play which role and every site's parameters.
var roster = [numFamilies][]struct {
	role role
	n    int
}{
	famList: {{roleEmptyList, 14}, {roleOversizedList, 14}, {roleSingletonList, 12}, {roleGrowList, 12}, {rolePhaseList, 8}, {roleStableList, 4}},
	famSet:  {{roleEmptySet, 24}, {roleSmallSet, 28}, {roleLargeSet, 12}},
	famMap:  {{roleSmallMap, 36}, {roleEmptyMap, 16}, {roleLargeMap, 12}},
}

// retained reports whether the role's instances live for the whole run.
func (r role) retained() bool {
	return r == roleStableList || r == roleLargeSet || r == roleLargeMap
}

// site is one allocation call site and the behaviour planted at it.
type site struct {
	fam  family
	idx  int // call-site index within the family (sites.go)
	role role
	// capacity is the declared initial capacity (0 = implementation default).
	capacity int
	// size is the typical element count of an instance.
	size int
	// emptyPerMille is the share of instances that never receive an element.
	emptyPerMille int
	// reads is the number of lookups an instance serves.
	reads int
	// mediumPerMille is the share of instances kept alive across tasks.
	mediumPerMille int
}

// label is the site's static allocation-context label.
func (s *site) label() string {
	return fmt.Sprintf("perfbench.%s%02d.%s:1", familyNames[s.fam], s.idx, roleNames[s.role])
}

// op codes. Ops on a slot name the slot of their family.
const (
	opListNew      uint8 = iota
	opListAdd            // a: value
	opListGet            // a: index
	opListContains       // a: value
	opListEach
	opListSize
	opListFree
	opSetNew
	opSetAdd // a: value
	opSetContains
	opSetEach
	opSetFree
	opMapNew
	opMapPut // a: key, b: value
	opMapGet
	opMapEach
	opMapSize
	opMapFree
	opTask // ends a task of the body: the unit task latency is timed in
)

// op is one instruction. site is used by the New ops only.
type op struct {
	code uint8
	site uint8
	slot uint16
	a, b int32
}

// stream is one goroutine's share of a program: a prologue that builds the
// retained pool, a body of tasks, and an epilogue that folds and frees the
// retained pool.
type stream struct {
	prologue, body, epilogue []op
	slots                    [numFamilies]int
}

// program is the generated traffic of a batch workload.
type program struct {
	sites   []site // every site of the pool, by family then index
	streams []stream
}

// xorshift is the generator's PRNG: deterministic and allocation-free.
type xorshift uint64

func newRand(seed uint64) *xorshift {
	x := xorshift(seed*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D)
	if x == 0 {
		x = 1
	}
	return &x
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// intn returns a value in [0, n).
func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (x *xorshift) between(lo, hi int) int { return lo + x.intn(hi-lo+1) }

// perMille reports true with probability p/1000.
func (x *xorshift) perMille(p int) bool { return x.intn(1000) < p }

// mix folds a value into an order-sensitive checksum.
func mix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// scramble spreads a value for order-insensitive (additive) folds.
func scramble(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xFF51AFD7ED558CCD
	v ^= v >> 33
	return v
}

// newSites assigns roles and parameters to the whole call-site pool. The
// seed decides which site plays which role; within a role, the k-th of its
// n sites gets the k-th of n evenly spread parameter values, so totals
// (and with them every saving) do not depend on the seed.
func newSites(r *xorshift) []site {
	sites := make([]site, 0, int(numFamilies)*sitesPerFamily)
	for f := family(0); f < numFamilies; f++ {
		var roles []role
		n := map[role]int{}
		for _, rc := range roster[f] {
			for i := 0; i < rc.n; i++ {
				roles = append(roles, rc.role)
			}
			n[rc.role] = rc.n
		}
		if len(roles) != sitesPerFamily {
			panic("perfbench: roster does not cover the site pool")
		}
		for i := len(roles) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			roles[i], roles[j] = roles[j], roles[i]
		}
		k := map[role]int{}
		for idx, ro := range roles {
			sites = append(sites, plant(f, idx, ro, rank{k[ro], n[ro]}))
			k[ro]++
		}
	}
	return sites
}

// rank is a site's position k among the n sites of its role.
type rank struct{ k, n int }

// pick cycles through choices.
func (rk rank) pick(choices ...int) int { return choices[rk.k%len(choices)] }

// spread places the site evenly within [lo, hi].
func (rk rank) spread(lo, hi int) int { return lo + (hi-lo)*(2*rk.k+1)/(2*rk.n) }

// plant sets one site's parameters for its role.
func plant(f family, idx int, ro role, rk rank) site {
	s := site{fam: f, idx: idx, role: ro, mediumPerMille: rk.pick(400, 600, 800)}
	switch ro {
	case roleEmptyList, roleEmptySet, roleEmptyMap:
		s.emptyPerMille = rk.spread(860, 940)
		s.size = rk.pick(1, 2, 3, 2)
		s.reads = rk.pick(3, 1, 2)
	case roleOversizedList:
		s.capacity = rk.pick(32, 48, 64)
		s.emptyPerMille = rk.spread(800, 880)
		s.size = 2
		s.reads = 1
		s.mediumPerMille = rk.pick(300, 100, 200)
	case roleSingletonList:
		s.size = 1
		s.reads = rk.pick(1, 2, 3, 4)
	case roleGrowList:
		s.size = rk.spread(24, 72)
		s.reads = rk.pick(2, 4, 6)
	case rolePhaseList:
		s.size = rk.pick(4, 6, 8)
		s.reads = 1
	case roleSmallSet:
		// Sizes are powers of two and fixed per site: a small collection's
		// size is stable, and capacity-carrying fixes stay verified.
		s.size = rk.pick(2, 4, 8)
		s.reads = rk.spread(6, 14)
	case roleSmallMap:
		s.size = rk.pick(2, 4, 8)
		s.reads = rk.spread(20, 40)
	case roleStableList:
		s.size = rk.spread(100, 300)
	case roleLargeSet:
		s.size = rk.spread(200, 400)
	case roleLargeMap:
		s.size = rk.spread(80, 200)
	}
	if ro.retained() {
		s.mediumPerMille = 0
	}
	return s
}

// shape sizes one stream of a program.
type shape struct {
	// families and roles admitted to the stream (nil = all).
	admit func(*site) bool
	// rounds is how many instances every admitted short-lived site gets.
	rounds int
	// perTask is how many short-lived instances one task allocates.
	perTask int
	// probes is the number of retained-pool lookups per task.
	probes int
	// ring is how many medium-lived instances the stream keeps alive at
	// the end of its body.
	ring int
	// mediumPct scales every site's medium-lived share (percent).
	mediumPct int
}

// genProgram generates a batch program: one stream per shape over a shared
// site pool.
func genProgram(seed uint64, shapes []shape) *program {
	r := newRand(seed)
	p := &program{sites: newSites(r)}
	for _, sh := range shapes {
		g := &gen{r: r}
		p.streams = append(p.streams, g.stream(p, sh))
	}
	return p
}

// gen builds one stream.
type gen struct {
	r       *xorshift
	ops     []op
	free    [numFamilies][]uint16
	nslots  [numFamilies]int
	listLen map[uint16]int32
}

type inst struct {
	fam  family
	slot uint16
}

func (g *gen) emit(o op) { g.ops = append(g.ops, o) }

// alloc emits the allocation of an instance of s and returns its slot.
func (g *gen) alloc(s *site) uint16 {
	var slot uint16
	if fl := g.free[s.fam]; len(fl) > 0 {
		slot = fl[len(fl)-1]
		g.free[s.fam] = fl[:len(fl)-1]
	} else {
		slot = uint16(g.nslots[s.fam])
		g.nslots[s.fam]++
	}
	code := [numFamilies]uint8{opListNew, opSetNew, opMapNew}[s.fam]
	g.emit(op{code: code, site: uint8(s.idx), slot: slot})
	if s.fam == famList {
		g.listLen[slot] = 0
	}
	return slot
}

func (g *gen) release(in inst) {
	g.emit(op{code: [numFamilies]uint8{opListFree, opSetFree, opMapFree}[in.fam], slot: in.slot})
	g.free[in.fam] = append(g.free[in.fam], in.slot)
}

func (g *gen) value() int32 { return int32(g.r.intn(1 << 20)) }

func (g *gen) listAdd(slot uint16, v int32) {
	g.emit(op{code: opListAdd, slot: slot, a: v})
	g.listLen[slot]++
}

// listGet emits a read of a random element; the list must be non-empty.
func (g *gen) listGet(slot uint16) {
	g.emit(op{code: opListGet, slot: slot, a: int32(g.r.intn(int(g.listLen[slot])))})
}

// fill emits the element-adding phase of one instance of s.
func (g *gen) fill(s *site, slot uint16, n int) {
	switch s.fam {
	case famList:
		for i := 0; i < n; i++ {
			g.listAdd(slot, g.value())
		}
	case famSet:
		for i := 0; i < n; i++ {
			g.emit(op{code: opSetAdd, slot: slot, a: g.value()})
		}
	case famMap:
		for i := 0; i < n; i++ {
			g.emit(op{code: opMapPut, slot: slot, a: int32(i * 7), b: g.value()})
		}
	}
}

// instance emits one short-lived instance's life up to (not including) its
// free. late marks the second half of the stream, where phase sites shift.
func (g *gen) instance(s *site, late bool) uint16 {
	r := g.r
	slot := g.alloc(s)
	switch s.role {
	case roleEmptyList, roleOversizedList:
		if !r.perMille(s.emptyPerMille) {
			g.fill(s, slot, r.between(1, s.size))
		}
		g.emit(op{code: opListSize, slot: slot})
		for i := 0; i < s.reads; i++ {
			g.emit(op{code: opListContains, slot: slot, a: g.value()})
		}
		g.emit(op{code: opListEach, slot: slot})
	case roleSingletonList:
		g.listAdd(slot, g.value())
		for i := 0; i < s.reads; i++ {
			g.listGet(slot)
		}
		g.emit(op{code: opListEach, slot: slot})
	case roleGrowList:
		g.fill(s, slot, r.between(s.size*4/5, s.size*6/5))
		for i := 0; i < s.reads; i++ {
			g.listGet(slot)
		}
		g.emit(op{code: opListEach, slot: slot})
	case rolePhaseList:
		if late {
			g.fill(s, slot, r.between(s.size/2, s.size))
			g.emit(op{code: opListEach, slot: slot})
		}
		g.emit(op{code: opListSize, slot: slot})
	case roleEmptySet:
		if !r.perMille(s.emptyPerMille) {
			g.fill(s, slot, r.between(1, s.size))
		}
		for i := 0; i < s.reads; i++ {
			g.emit(op{code: opSetContains, slot: slot, a: g.value()})
		}
	case roleSmallSet:
		g.fill(s, slot, s.size)
		for i := 0; i < s.reads; i++ {
			g.emit(op{code: opSetContains, slot: slot, a: g.value()})
		}
		g.emit(op{code: opSetEach, slot: slot})
	case roleSmallMap:
		g.fill(s, slot, s.size)
		for i := 0; i < s.reads; i++ {
			g.emit(op{code: opMapGet, slot: slot, a: int32(r.intn(s.size+2) * 7)})
		}
		g.emit(op{code: opMapSize, slot: slot})
	case roleEmptyMap:
		if !r.perMille(s.emptyPerMille) {
			g.fill(s, slot, r.between(1, s.size))
		}
		for i := 0; i < s.reads; i++ {
			g.emit(op{code: opMapGet, slot: slot, a: int32(r.intn(4) * 7)})
		}
	}
	return slot
}

// stream generates one stream over the admitted sites.
func (g *gen) stream(p *program, sh shape) stream {
	r := g.r
	g.listLen = make(map[uint16]int32)
	var short, kept []*site
	for i := range p.sites {
		s := &p.sites[i]
		if sh.admit != nil && !sh.admit(s) {
			continue
		}
		if s.role.retained() {
			kept = append(kept, s)
		} else {
			short = append(short, s)
		}
	}

	// Prologue: the retained pool.
	var pool []inst
	for _, s := range kept {
		slot := g.alloc(s)
		g.fill(s, slot, s.size)
		pool = append(pool, inst{s.fam, slot})
	}
	var out stream
	out.prologue, g.ops = g.ops, nil

	// Body: every short-lived site gets exactly rounds instances, in a
	// fresh random order each round, cut into tasks of perTask instances.
	order := make([]*site, 0, len(short)*sh.rounds)
	for round := 0; round < sh.rounds; round++ {
		base := len(order)
		order = append(order, short...)
		perm := order[base:]
		for i := len(perm) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	// Medium-lived instances queue up and die in allocation order, once
	// ring younger ones are alive.
	var ring []inst
	for k, s := range order {
		late := k >= len(order)/2
		slot := g.instance(s, late)
		in := inst{s.fam, slot}
		if r.perMille(s.mediumPerMille * sh.mediumPct / 100) {
			ring = append(ring, in)
			if len(ring) > sh.ring {
				g.release(ring[0])
				ring = ring[1:]
			}
		} else {
			g.release(in)
		}
		if (k+1)%sh.perTask == 0 {
			for i := 0; i < sh.probes && len(pool) > 0; i++ {
				g.probe(pool[r.intn(len(pool))])
			}
			g.emit(op{code: opTask})
		}
	}
	for _, in := range ring {
		g.release(in)
	}
	out.body, g.ops = g.ops, nil

	// Epilogue: fold and free the retained pool.
	for _, in := range pool {
		g.emit(op{code: [numFamilies]uint8{opListEach, opSetEach, opMapEach}[in.fam], slot: in.slot})
		g.release(in)
	}
	out.epilogue, g.ops = g.ops, nil
	out.slots = g.nslots
	return out
}

// probe emits one lookup into a retained instance.
func (g *gen) probe(in inst) {
	switch in.fam {
	case famList:
		g.listGet(in.slot)
	case famSet:
		g.emit(op{code: opSetContains, slot: in.slot, a: g.value()})
	case famMap:
		g.emit(op{code: opMapGet, slot: in.slot, a: int32(g.r.intn(400) * 7)})
	}
}

// replay runs ops on plain Go slices and maps: the reference result.
type replay struct {
	lists [][]int
	sets  []map[int]struct{}
	maps  []map[int]int
	sum   uint64
}

func newReplay(st *stream) *replay {
	return &replay{
		lists: make([][]int, st.slots[famList]),
		sets:  make([]map[int]struct{}, st.slots[famSet]),
		maps:  make([]map[int]int, st.slots[famMap]),
		sum:   17,
	}
}

// run executes ops and returns the running checksum.
func (rp *replay) run(ops []op) uint64 {
	for i := range ops {
		o := &ops[i]
		switch o.code {
		case opListNew:
			rp.lists[o.slot] = []int{}
		case opListAdd:
			rp.lists[o.slot] = append(rp.lists[o.slot], int(o.a))
		case opListGet:
			rp.sum = mix(rp.sum, uint64(rp.lists[o.slot][o.a]))
		case opListContains:
			found := false
			for _, v := range rp.lists[o.slot] {
				if v == int(o.a) {
					found = true
					break
				}
			}
			rp.sum = mix(rp.sum, b2u(found))
		case opListEach:
			h := uint64(17)
			for _, v := range rp.lists[o.slot] {
				h = mix(h, uint64(v))
			}
			rp.sum = mix(rp.sum, h)
		case opListSize:
			rp.sum = mix(rp.sum, uint64(len(rp.lists[o.slot])))
		case opListFree:
			rp.lists[o.slot] = nil
		case opSetNew:
			rp.sets[o.slot] = map[int]struct{}{}
		case opSetAdd:
			rp.sets[o.slot][int(o.a)] = struct{}{}
		case opSetContains:
			_, ok := rp.sets[o.slot][int(o.a)]
			rp.sum = mix(rp.sum, b2u(ok))
		case opSetEach:
			var h uint64
			for v := range rp.sets[o.slot] {
				h += scramble(uint64(v))
			}
			rp.sum = mix(rp.sum, h)
		case opSetFree:
			rp.sets[o.slot] = nil
		case opMapNew:
			rp.maps[o.slot] = map[int]int{}
		case opMapPut:
			rp.maps[o.slot][int(o.a)] = int(o.b)
		case opMapGet:
			v, ok := rp.maps[o.slot][int(o.a)]
			rp.sum = mix(rp.sum, mapRead(v, ok))
		case opMapEach:
			var h uint64
			for k, v := range rp.maps[o.slot] {
				h += scramble(uint64(k)*31 + uint64(v))
			}
			rp.sum = mix(rp.sum, h)
		case opMapSize:
			rp.sum = mix(rp.sum, uint64(len(rp.maps[o.slot])))
		case opMapFree:
			rp.maps[o.slot] = nil
		case opTask:
		default:
			panic(fmt.Sprintf("perfbench: unknown op %d", o.code))
		}
	}
	return rp.sum
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// mapRead encodes a map lookup result for the checksum.
func mapRead(v int, ok bool) uint64 {
	if !ok {
		return 0xDEAD
	}
	return uint64(v)
}

// reference replays every stream of the program and returns one checksum
// per stream.
func (p *program) reference() []uint64 {
	out := make([]uint64, len(p.streams))
	for i := range p.streams {
		st := &p.streams[i]
		rp := newReplay(st)
		rp.run(st.prologue)
		rp.run(st.body)
		out[i] = rp.run(st.epilogue)
	}
	return out
}

// planted lists the sites whose role is one of the Table 2 pathologies,
// with the implementations that count as fixing it.
func (p *program) planted() map[*site][]string {
	out := make(map[*site][]string)
	for i := range p.sites {
		s := &p.sites[i]
		if fixes := expectedFixes[s.role]; fixes != nil {
			out[s] = fixes
		}
	}
	return out
}

// expectedFixes names, per planted role, the plan implementations that fix
// it ("ArrayList" stands for a capacity-only plan entry).
var expectedFixes = map[role][]string{
	roleEmptyList:     {"LazyArrayList"},
	roleOversizedList: {"LazyArrayList", "SingletonList"},
	roleSingletonList: {"SingletonList"},
	roleGrowList:      {"ArrayList"},
	roleEmptySet:      {"LazySet"},
	roleSmallSet:      {"ArraySet"},
	roleSmallMap:      {"ArrayMap"},
	roleEmptyMap:      {"LazyMap"},
}

// digest summarizes a program for determinism checks.
func (p *program) digest() uint64 {
	h := uint64(17)
	for _, s := range p.sites {
		h = mix(h, uint64(s.fam)<<56|uint64(s.idx)<<48|uint64(s.role)<<40|uint64(s.capacity)<<24|uint64(s.size))
		h = mix(h, uint64(s.emptyPerMille)<<32|uint64(s.reads)<<16|uint64(s.mediumPerMille))
	}
	for _, st := range p.streams {
		for _, part := range [][]op{st.prologue, st.body, st.epilogue} {
			for _, o := range part {
				h = mix(h, uint64(o.code)<<56|uint64(o.site)<<48|uint64(o.slot)<<32|uint64(uint32(o.a)))
				h = mix(h, uint64(uint32(o.b)))
			}
		}
	}
	return h
}

// opCount is the number of ops across all streams.
func (p *program) opCount() int {
	n := 0
	for _, st := range p.streams {
		n += len(st.prologue) + len(st.body) + len(st.epilogue)
	}
	return n
}
