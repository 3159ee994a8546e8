package profiler

import (
	"bytes"
	"fmt"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/spec"
)

// FuzzReadProfiles throws arbitrary bytes at the snapshot reader: it must
// never panic, never allocate absurdly, and every profile it does accept
// must satisfy the wire-validation invariants (satellite of the hardened-
// persistence work; see persist.go).
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
			// Re-validate what the reader accepted: anything the validator
			// would reject must have landed in recErrs instead.
			if verr := pr.toWire().validate(); verr != nil {
				t.Fatalf("accepted profile %d violates wire invariants: %v", i, verr)
			}
		}
		for _, re := range recErrs {
			if re.Err == nil {
				t.Fatalf("damage report entry without a cause: %+v", re)
			}
		}
	})
}
