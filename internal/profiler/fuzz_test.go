package profiler

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/heap"
	"chameleon/internal/spec"
	"chameleon/internal/stats"
)

// FuzzReadProfiles throws arbitrary bytes at the snapshot reader: it must
// never panic, never allocate absurdly, and every profile it does accept
// must satisfy the wire-validation invariants of the encoding/json
// reference (wire_test.go).
func FuzzReadProfiles(f *testing.F) {
	// Seed with a real snapshot, a retired v1 array, and a few near-misses
	// so the fuzzer starts inside the interesting grammar.
	tab := alloctx.NewTable()
	p := New()
	for i := 0; i < 3; i++ {
		ctx := tab.Static(fmt.Sprintf("fuzz.Site%d:1", i))
		in := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 4)
		in.Record(spec.Put)
		in.NoteSize(i + 1)
		p.OnDeath(in)
	}
	var seed bytes.Buffer
	if err := WriteProfiles(&seed, p.Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	half := seed.Len() / 2
	f.Add(seed.Bytes()[:half])
	f.Add([]byte(`[{"context":"a:1","declared":"HashMap","impl":"HashMap","allocs":1,"live":0}]`))
	f.Add([]byte(`{"format":"chameleon-profiles","version":3,"count":3}`))
	f.Add([]byte(`{"crc":"00000000","profile":{}}`))
	f.Add([]byte("[[[[["))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		profiles, recErrs, err := ReadProfilesReport(bytes.NewReader(data))
		if err != nil {
			if len(profiles) != 0 {
				t.Fatalf("stream-level error %v alongside %d loaded profiles", err, len(profiles))
			}
			return
		}
		for i, pr := range profiles {
			if pr == nil {
				t.Fatalf("accepted profile %d is nil", i)
			}
			// Re-validate what the reader accepted through the reference:
			// anything it would reject must have landed in recErrs instead.
			body, err := appendProfile(nil, pr)
			if err != nil {
				t.Fatalf("accepted profile %d does not encode: %v", i, err)
			}
			if _, err := refDecode(body, alloctx.NewTable()); err != nil {
				t.Fatalf("accepted profile %d violates wire invariants: %v", i, err)
			}
		}
		for _, re := range recErrs {
			if re.Err == nil {
				t.Fatalf("damage report entry without a cause: %+v", re)
			}
		}
	})
}

// FuzzProfileBody holds the record codec to the encoding/json reference of
// wire_test.go. It works on record bodies, as random bytes never pass a
// record's CRC.
//
// Decode side: a body decodeProfile accepts, refDecode accepts with the
// same values; a body refDecode rejects, decodeProfile rejects; a body
// only decodeProfile rejects holds one of the three spellings the codec
// refuses (stricterSpelling).
//
// Encode side: a profile built from the input encodes to the bytes
// json.Marshal writes for its wire struct, or fails where json.Marshal
// fails, and reads back as what it holds, each invalid UTF-8 byte of its
// context as U+FFFD.
func FuzzProfileBody(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	for _, path := range []string{
		"testdata/edge_profiles.golden",
		"../experiments/testdata/tvla_profiles.golden",
		"../experiments/testdata/pmd_profiles.golden",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.Split(data, []byte("\n"))[1:] {
			if len(line) > recordHead {
				f.Add(line[recordHead : len(line)-1])
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeProfile(data, alloctx.NewTable())
		want, refErr := refDecode(data, alloctx.NewTable())
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("decodeProfile accepted a body the reference rejects (%v)", refErr)
		case err == nil:
			if diff := profileDiff(got, want); diff != "" {
				t.Fatalf("decodeProfile and the reference load different values: %s", diff)
			}
		case refErr == nil && !stricterSpelling(data):
			t.Fatalf("decodeProfile rejected (%v) a body the reference accepts", err)
		}

		p := profileFrom(data)
		body, err := appendProfile(nil, p)
		wire, refErr := json.Marshal(p.toWire())
		if (err == nil) != (refErr == nil) {
			t.Fatalf("appendProfile error %v, json.Marshal error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(body, wire) {
			t.Fatalf("appendProfile wrote\n%s\njson.Marshal wrote\n%s", body, wire)
		}
		back, err := decodeProfile(body, alloctx.NewTable())
		ref, refErr := refDecode(body, alloctx.NewTable())
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decodeProfile error %v, reference error %v on a written body", err, refErr)
		}
		if err != nil {
			return
		}
		if diff := profileDiff(back, ref); diff != "" {
			t.Fatalf("a written body loads differently from the reference: %s", diff)
		}
		if diff := profileDiff(back, readBack(p)); diff != "" {
			t.Fatalf("a written body does not load what was written: %s", diff)
		}
	})
}

// stricterSpelling reports whether body holds a spelling decodeProfile
// rejects and encoding/json took: a key matching a field of the record
// only case-insensitively, a key repeated within one object, or null.
func stricterSpelling(body []byte) bool {
	type object struct {
		keys    map[string]bool
		wantKey bool
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	var stack []*object // nil entries are arrays
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var top *object
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if top != nil && top.wantKey {
			if tok == json.Delim('}') {
				stack = stack[:len(stack)-1]
				continue
			}
			key := tok.(string)
			if top.keys[key] || len(stack) == 1 && foldsToField(key) {
				return true
			}
			top.keys[key] = true
			top.wantKey = false
			continue
		}
		if top != nil {
			top.wantKey = true
		}
		switch tok {
		case nil:
			return true
		case json.Delim('{'):
			stack = append(stack, &object{keys: map[string]bool{}, wantKey: true})
		case json.Delim('['):
			stack = append(stack, nil)
		case json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
	}
}

// foldsToField reports whether key names a record field only when case
// is ignored, as encoding/json's fallback match does.
func foldsToField(key string) bool {
	for _, name := range wireFields {
		if key == name {
			return false
		}
	}
	for _, name := range wireFields {
		if strings.EqualFold(key, name) {
			return true
		}
	}
	return false
}

// profileFrom builds a profile from fuzz input: every value drawn from
// data, in and out of the reader's ranges, NaN and infinities included.
func profileFrom(data []byte) *Profile {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	word := func() uint64 {
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	count := func() int64 {
		switch next() % 4 {
		case 0:
			return 0
		case 1:
			return int64(next())
		case 2:
			return int64(word() >> 11) // up to 2^53
		}
		return int64(word())
	}
	float := func() float64 {
		switch next() % 4 {
		case 0:
			return 0
		case 1:
			return float64(next()) / 8
		case 2:
			return float64(word()>>12) / float64(uint64(1)<<uint(next()%64))
		}
		return math.Float64frombits(word())
	}
	n := int(next() % 48)
	label := make([]byte, 0, n)
	for range n {
		label = append(label, next())
	}
	p := &Profile{
		Context:        alloctx.NewTable().Static(string(label)),
		Declared:       spec.Kind(next() % 32),
		Impl:           spec.Kind(next() % 32),
		Allocs:         count(),
		Live:           count(),
		Evidence:       count(),
		MaxSizeAvg:     float(),
		MaxSizeStdDev:  float(),
		MaxSizeMax:     float(),
		FinalSizeAvg:   float(),
		InitialCapAvg:  float(),
		EmptyIterators: count(),
		MaxHeap:        heap.Footprint{Live: count(), Used: count(), Core: count()},
		TotHeap:        heap.Footprint{Live: count(), Used: count(), Core: count()},
		TotObjs:        count(),
		MaxObjs:        count(),
		GCCycles:       count(),
	}
	for op := spec.Op(0); op < spec.NumOps; op++ {
		if next() != 0 {
			p.OpTotals[op], p.OpMean[op], p.OpStdDev[op] = count(), float(), float()
		}
	}
	if buckets := int(next() % 12); buckets > 0 {
		p.SizeHist = stats.NewHistogram()
		for range buckets {
			size := count()
			if next()%8 == 0 {
				size = -size
			}
			p.SizeHist.AddN(size, count())
		}
	}
	return p
}

// readBack is what reading p's record must load: its context with each
// invalid UTF-8 byte as U+FFFD, op statistics of -0 as 0 (the op maps
// leave zeros out), and an empty histogram for none.
func readBack(p *Profile) *Profile {
	q := *p
	var label strings.Builder
	for _, r := range p.Context.String() {
		label.WriteRune(r)
	}
	q.Context = alloctx.NewTable().Static(label.String())
	for op := range q.OpMean {
		q.OpMean[op] += 0 // -0 + 0 is 0
		q.OpStdDev[op] += 0
	}
	if q.SizeHist == nil {
		q.SizeHist = stats.NewHistogram()
	}
	return &q
}

// profileDiff describes the first difference between two loaded profiles,
// floats compared bit for bit, or returns "".
func profileDiff(a, b *Profile) string {
	if a.Context.String() != b.Context.String() {
		return fmt.Sprintf("context %q vs %q", a.Context.String(), b.Context.String())
	}
	floats := func(p *Profile) []float64 {
		fs := []float64{p.MaxSizeAvg, p.MaxSizeStdDev, p.MaxSizeMax, p.FinalSizeAvg, p.InitialCapAvg}
		return append(append(fs, p.OpMean[:]...), p.OpStdDev[:]...)
	}
	fa, fb := floats(a), floats(b)
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return fmt.Sprintf("float %d: %v vs %v", i, fa[i], fb[i])
		}
	}
	if a.Declared != b.Declared || a.Impl != b.Impl || a.Allocs != b.Allocs || a.Live != b.Live ||
		a.Evidence != b.Evidence || a.OpTotals != b.OpTotals || a.EmptyIterators != b.EmptyIterators ||
		a.MaxHeap != b.MaxHeap || a.TotHeap != b.TotHeap || a.TotObjs != b.TotObjs ||
		a.MaxObjs != b.MaxObjs || a.GCCycles != b.GCCycles {
		return fmt.Sprintf("counts or kinds: %+v vs %+v", *a, *b)
	}
	ha, hb := a.SizeHist, b.SizeHist
	if ha.Count() != hb.Count() || fmt.Sprint(ha.Values()) != fmt.Sprint(hb.Values()) {
		return fmt.Sprintf("size histogram %v vs %v", ha.Values(), hb.Values())
	}
	for _, v := range ha.Values() {
		if ha.CountOf(v) != hb.CountOf(v) {
			return fmt.Sprintf("size histogram bucket %d: %d vs %d", v, ha.CountOf(v), hb.CountOf(v))
		}
	}
	return ""
}
