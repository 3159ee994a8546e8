package profiler

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/heap"
	"chameleon/internal/spec"
	"chameleon/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// edgeProfiles builds profiles by hand whose records hit every corner of
// the record encoding: strings that need escaping (HTML-unsafe bytes,
// quotes, control bytes, U+2028/U+2029, multi-byte runes, invalid UTF-8),
// floats on both sides of the exponent cutoffs, size-histogram keys whose
// string order differs from their numeric order, and each omitempty field
// once zero and once set. Distinct potentials fix their rank order.
func edgeProfiles() []*Profile {
	tab := alloctx.NewTable()
	hist := func(pairs ...int64) *stats.Histogram {
		h := stats.NewHistogram()
		for i := 0; i < len(pairs); i += 2 {
			h.AddN(pairs[i], pairs[i+1])
		}
		return h
	}
	mk := func(label string, potential int64) *Profile {
		return &Profile{
			Context:  tab.Static(label),
			Declared: spec.KindHashMap,
			Impl:     spec.KindArrayMap,
			Allocs:   3,
			Live:     1,
			MaxHeap:  heap.Footprint{Live: 1000 + potential, Used: 1000, Core: 64},
			TotHeap:  heap.Footprint{Live: 2000, Used: 1500, Core: 128},
			GCCycles: 2,
		}
	}

	// Every omitempty field zero; an empty histogram is omitted too.
	bare := mk("edge.Bare:1", 10)
	bare.SizeHist = stats.NewHistogram()

	// Every omitempty field set.
	full := mk("edge.Full:2", 20)
	full.Evidence = 7
	full.OpTotals[spec.Add] = 5
	full.OpTotals[spec.GetIndex] = 9
	full.OpTotals[spec.GetKey] = 4
	full.OpMean[spec.Add] = 1.25
	full.OpMean[spec.GetKey] = 0.5
	full.OpStdDev[spec.GetIndex] = 2.5
	full.SizeHist = hist(9, 1, 10, 2, 100, 3, 0, 4, 1000000, 5)
	full.EmptyIterators = 6
	full.TotObjs = 11
	full.MaxObjs = 12

	// The floats around encoding/json's 'f'/'e' cutoffs (1e-6, 1e21) and
	// at the ends of the float64 range; -0 only survives in a top-level
	// field, as the op maps leave zeros out.
	floats := mk("edge.Floats:3", 30)
	floats.MaxSizeAvg = math.Copysign(0, -1)
	floats.MaxSizeStdDev = 0
	floats.MaxSizeMax = 1e21
	floats.FinalSizeAvg = 1e20
	floats.InitialCapAvg = 5e-324
	floats.OpMean[spec.Add] = 1e-7
	floats.OpMean[spec.AddAt] = 9.99e-7
	floats.OpMean[spec.GetIndex] = 1e-6
	floats.OpMean[spec.Put] = math.MaxFloat64
	floats.OpMean[spec.Remove] = 123.456
	floats.OpStdDev[spec.Add] = -1e-7
	floats.OpStdDev[spec.Put] = 1e21
	floats.OpStdDev[spec.Size] = 1.5e300
	floats.OpStdDev[spec.Clear] = 2.5e-310

	out := []*Profile{bare, full, floats}
	for i, label := range []string{
		"edge.Html<a>&b:4",
		`edge.Quote"back\slash:5`,
		"edge.Tab\tnew\nline\rret\bbs\fff:6",
		"edge.Ctl\x01\x1fdel\x7f:7",
		"edge.Sep\u2028para\u2029:8",
		"edge.Runes.é日本🎉:9",
		"edge.Bad\xff\xfe\xed\xa0\x80trail\xc3:10",
	} {
		out = append(out, mk(label, int64(40+10*i)))
	}
	return out
}

// TestEdgeProfilesGolden pins the snapshot bytes of edgeProfiles. The
// tvla and pmd snapshot goldens hold no exponent float, no \u escape and
// no histogram whose string order differs from its numeric order; this
// one does. Regenerate with
// go test ./internal/profiler -run TestEdgeProfilesGolden -update.
func TestEdgeProfilesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProfiles(&buf, edgeProfiles()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "edge_profiles.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("snapshot bytes changed.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// Every record reads back but the one with floats no profiler run
	// writes, and each invalid UTF-8 byte of a context, written as
	// \ufffd, comes back as U+FFFD.
	loaded, recErrs, err := ReadProfilesReport(bytes.NewReader(want))
	if err != nil || len(recErrs) != 1 || !strings.Contains(recErrs[0].Error(), "out of range") ||
		len(loaded) != len(edgeProfiles())-1 {
		t.Fatalf("read back %d profiles, damage %v, err %v; want all but the out-of-range floats", len(loaded), recErrs, err)
	}
	for _, p := range loaded {
		if s := p.Context.String(); strings.HasPrefix(s, "edge.Bad") && s != "edge.Bad"+strings.Repeat("\uFFFD", 5)+"trail\uFFFD:10" {
			t.Fatalf("invalid UTF-8 context read back as %q", s)
		}
	}
}

// TestWriteProfilesRejectsNonFinite: JSON has no spelling for NaN or an
// infinity, so a profile holding one fails the write instead of writing
// a record no reader accepts.
func TestWriteProfilesRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, set := range []func(*Profile){
			func(p *Profile) { p.MaxSizeAvg = v },
			func(p *Profile) { p.OpMean[spec.Put] = v },
			func(p *Profile) { p.OpStdDev[spec.Add] = v },
		} {
			profiles := edgeProfiles()
			set(profiles[1])
			if err := WriteProfiles(&bytes.Buffer{}, profiles); err == nil {
				t.Fatalf("WriteProfiles accepted a profile holding %v", v)
			}
		}
	}
}

// bodyBase is a minimal record body every reader accepts; the decoder
// table splices one spelling into it at a time.
const bodyBase = `"context":"a:1","declared":"HashMap","impl":"HashMap"`

// decodeCase is one record body and what reading it must give: rejected,
// or accepted with check holding on the loaded profile.
type decodeCase struct {
	name   string
	body   string
	accept bool
	check  func(*Profile) bool
}

// decodeCases are the spellings whose fate the snapshot reader fixes.
var decodeCases = []decodeCase{
	{"control", `{` + bodyBase + `}`, true, func(p *Profile) bool {
		return p.Context.String() == "a:1" && p.Declared == spec.KindHashMap && p.Impl == spec.KindHashMap && p.Allocs == 0
	}},
	{"space before the object", ` {` + bodyBase + `}`, true, func(p *Profile) bool { return p.Context.String() == "a:1" }},
	{"whitespace between tokens", "{ \"context\" :\t\"a:1\" , " + `"declared":"HashMap","impl":"HashMap"` + "\r}", true, func(p *Profile) bool { return p.Context.String() == "a:1" }},
	{"minus zero", `{` + bodyBase + `,"allocs":-0,"maxSizeAvg":-0}`, true, func(p *Profile) bool {
		return p.Allocs == 0 && p.MaxSizeAvg == 0 && math.Signbit(p.MaxSizeAvg)
	}},
	{"exponent in a float field", `{` + bodyBase + `,"maxSizeAvg":1e2,"opsMean":{"put":2.5E-1}}`, true, func(p *Profile) bool {
		return p.MaxSizeAvg == 100 && p.OpMean[spec.Put] == 0.25
	}},
	{"escaped key", `{"\u0063ontext":"a:1","declared":"HashMap","impl":"HashMap"}`, true, func(p *Profile) bool { return p.Context.String() == "a:1" }},
	{"escaped value", `{"context":"a<b\\c\"d\/e\n:1","declared":"HashMap","impl":"HashMap"}`, true, func(p *Profile) bool {
		return p.Context.String() == "a<b\\c\"d/e\n:1" && p.Declared == spec.KindHashMap
	}},
	{"surrogate pair", `{"context":"a\ud83c\udf89:1","declared":"HashMap","impl":"HashMap"}`, true, func(p *Profile) bool { return p.Context.String() == "a\U0001F389:1" }},
	{"lone surrogate", `{"context":"a\ud800:1","declared":"HashMap","impl":"HashMap"}`, true, func(p *Profile) bool { return p.Context.String() == "a\uFFFD:1" }},
	{"raw invalid UTF-8", "{\"context\":\"a\xff:1\",\"declared\":\"HashMap\",\"impl\":\"HashMap\"}", true, func(p *Profile) bool { return p.Context.String() == "a\uFFFD:1" }},
	{"negative potential", `{` + bodyBase + `,"potential":-5}`, true, func(p *Profile) bool { return p.Potential() == 0 }},
	{"non-canonical buckets add up", `{` + bodyBase + `,"sizeHist":{"5":1,"05":2,"+5":4}}`, true, func(p *Profile) bool {
		return p.SizeHist.Count() == 7 && p.SizeHist.CountOf(5) == 7
	}},
	{"fields in any order", `{"impl":"ArrayList","live":2,"allocs":3,"declared":"LinkedList","context":"a:1"}`, true, func(p *Profile) bool {
		return p.Impl == spec.KindArrayList && p.Declared == spec.KindLinkedList && p.Allocs == 3 && p.Live == 2
	}},

	{"space after the object", `{` + bodyBase + `} `, false, nil},
	{"leading zero", `{` + bodyBase + `,"allocs":01}`, false, nil},
	{"fraction in an int field", `{` + bodyBase + `,"allocs":1.0}`, false, nil},
	{"exponent in an int field", `{` + bodyBase + `,"allocs":1e2}`, false, nil},
	{"int64 overflow", `{` + bodyBase + `,"allocs":9223372036854775808}`, false, nil},
	{"float overflow", `{` + bodyBase + `,"maxSizeAvg":1e400}`, false, nil},
	{"trailing comma", `{` + bodyBase + `,}`, false, nil},
	{"raw control byte", "{\"context\":\"a\x01:1\",\"declared\":\"HashMap\",\"impl\":\"HashMap\"}", false, nil},
	{"bad escape", `{"context":"a\x:1","declared":"HashMap","impl":"HashMap"}`, false, nil},
	{"string for an int", `{` + bodyBase + `,"allocs":"1"}`, false, nil},
	{"array for a map", `{` + bodyBase + `,"ops":[1]}`, false, nil},
	{"bool for a float", `{` + bodyBase + `,"maxSizeAvg":true}`, false, nil},
	{"fraction for potential", `{` + bodyBase + `,"potential":1.5}`, false, nil},
	{"not an object", `[]`, false, nil},
	{"unterminated", `{` + bodyBase, false, nil},
	{"missing context", `{"declared":"HashMap","impl":"HashMap"}`, false, nil},
	{"missing impl", `{"context":"a:1","declared":"HashMap"}`, false, nil},
	{"live over allocs", `{` + bodyBase + `,"allocs":1,"live":2}`, false, nil},
	{"count over 2^53", `{` + bodyBase + `,"ops":{"put":9007199254740993}}`, false, nil},
	{"negative mean", `{` + bodyBase + `,"opsStdDev":{"put":-1}}`, false, nil},
	{"bucket out of range", `{` + bodyBase + `,"sizeHist":{"1000000000000001":1}}`, false, nil},

	// Three spellings WriteProfiles never writes, which encoding/json
	// took: a key matching a field only case-insensitively, a key
	// repeated within one object, and null.
	{"key matching a field case-insensitively", `{"CONTEXT":"a:1","declared":"HashMap","impl":"HashMap"}`, false, nil},
	{"repeated field", `{` + bodyBase + `,"allocs":1,"allocs":2}`, false, nil},
	{"repeated bucket", `{` + bodyBase + `,"sizeHist":{"1":2,"1":3}}`, false, nil},
	{"repeated operation", `{` + bodyBase + `,"ops":{"add":1,"add":2}}`, false, nil},
	{"null field", `{` + bodyBase + `,"allocs":null}`, false, nil},
	{"null map", `{` + bodyBase + `,"ops":{"add":1},"ops":null}`, false, nil},
	{"null map value", `{` + bodyBase + `,"opsMean":{"add":null}}`, false, nil},
}

// TestDecodeBodies holds the snapshot reader to decodeCases, each body
// framed as a one-record snapshot with a correct CRC.
func TestDecodeBodies(t *testing.T) {
	for _, c := range decodeCases {
		loaded, recErrs, err := ReadProfilesReport(strings.NewReader(rawSnapshot(c.body)))
		if err != nil {
			t.Fatalf("%s: stream-level error %v", c.name, err)
		}
		if !c.accept {
			if len(loaded) != 0 || len(recErrs) != 1 || recErrs[0].Index != 0 {
				t.Errorf("%s: loaded %d, damage %v, want record 0 rejected", c.name, len(loaded), recErrs)
			}
			continue
		}
		if len(loaded) != 1 || len(recErrs) != 0 {
			t.Errorf("%s: loaded %d, damage %v, want the record loaded", c.name, len(loaded), recErrs)
			continue
		}
		if !c.check(loaded[0]) {
			t.Errorf("%s: loaded values wrong: %+v", c.name, *loaded[0])
		}
	}
}
