package fleet

import (
	"bytes"
	"testing"
)

// FuzzMergeProfiles throws arbitrary byte streams at the full merge
// path — per-record tolerant read, then merge — as two sources plus one
// known-good shard. It must never panic, and the merge report's
// accounting must stay internally consistent no matter how rotten the
// inputs are.
func FuzzMergeProfiles(f *testing.F) {
	good := snapshotBytes(f, buildSnapshot(f, 1, 3))
	other := snapshotBytes(f, buildSnapshot(f, 3, 4))
	f.Add(good, other)
	f.Add(good, good)
	f.Add(good[:len(good)/2], other[:len(other)*2/3])
	f.Add([]byte(`{"format":"chameleon-profiles","version":3,"count":1}`), []byte(nil))
	f.Add([]byte("[[[["), []byte("garbage"))

	anchor, _ := ReadSource("anchor.json", bytes.NewReader(good))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		sa, _ := ReadSource("a.json", bytes.NewReader(a))
		sb, _ := ReadSource("b.json", bytes.NewReader(b))
		res := Merge([]Source{anchor, sa, sb}, Options{})
		if res.Report.Contexts != len(res.Profiles) {
			t.Fatalf("report says %d contexts, result has %d", res.Report.Contexts, len(res.Profiles))
		}
		if len(res.Annotations) != len(res.Profiles) {
			t.Fatalf("%d annotations for %d contexts", len(res.Annotations), len(res.Profiles))
		}
		kept := 0
		for _, sr := range res.Report.Sources {
			kept += sr.Records
			if sr.Records < 0 || sr.Dropped < 0 || sr.Duplicates < 0 {
				t.Fatalf("negative accounting: %+v", sr)
			}
		}
		// Every merged context exists because at least one record was kept.
		if len(res.Profiles) > kept {
			t.Fatalf("%d contexts from %d kept records", len(res.Profiles), kept)
		}
		// The anchor's contexts always survive: damage elsewhere degrades
		// those sources, never the healthy one.
		mm := byContext(res.Profiles)
		for _, p := range anchor.Profiles {
			if mm[p.Context.String()] == nil {
				t.Fatalf("healthy source's context %s lost to corrupt peers", p.Context)
			}
		}
		for ctx, ann := range res.Annotations {
			if ann.Confidence < 0 || ann.Confidence > 1 {
				t.Fatalf("%s: confidence %v out of range", ctx, ann.Confidence)
			}
		}
	})
}
