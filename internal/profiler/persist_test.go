package profiler

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/faults"
	"chameleon/internal/spec"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// buildManyProfiles makes a snapshot with n distinct contexts so damage
// tests have a prefix worth recovering.
func buildManyProfiles(t *testing.T, n int) []*Profile {
	t.Helper()
	tab := alloctx.NewTable()
	p := New()
	for i := 0; i < n; i++ {
		ctx := tab.Static(fmt.Sprintf("persist.Site%d:1;persist.Main:9", i))
		in := p.OnAlloc(ctx, spec.KindArrayList, spec.KindArrayList, 0)
		for j := 0; j <= i; j++ {
			in.Record(spec.Add)
			in.NoteSize(j + 1)
		}
		p.OnDeath(in)
	}
	profiles := p.Snapshot()
	if len(profiles) != n {
		t.Fatalf("built %d profiles, want %d", len(profiles), n)
	}
	return profiles
}

// TestTornWriteLoadsValidPrefix: a writer dying mid-write (simulated by
// the TornWrite fault truncating the byte stream) leaves a file whose
// valid prefix still loads; the damage is reported per record, including
// the header-count truncation marker.
func TestTornWriteLoadsValidPrefix(t *testing.T) {
	profiles := buildManyProfiles(t, 6)
	path := filepath.Join(t.TempDir(), "torn.json")
	faults.ArmT(t, &faults.Plan{TornWrite: func(data []byte) ([]byte, bool) {
		return data[:len(data)*2/3], true // die two-thirds through the write
	}})
	if err := WriteProfilesFile(path, profiles); err != nil {
		t.Fatal(err)
	}
	faults.Disarm()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, recErrs, err := ReadProfilesReport(f)
	if err != nil {
		t.Fatalf("torn snapshot failed wholesale: %v", err)
	}
	if len(loaded) == 0 || len(loaded) >= len(profiles) {
		t.Fatalf("loaded %d of %d from torn file, want a proper valid prefix", len(loaded), len(profiles))
	}
	if len(recErrs) == 0 {
		t.Fatal("torn snapshot reported no damage")
	}
	foundTrunc := false
	for _, re := range recErrs {
		if re.Index == -1 && strings.Contains(re.Err.Error(), "truncated") {
			foundTrunc = true
		}
	}
	if !foundTrunc {
		t.Fatalf("no truncation marker in damage report: %v", recErrs)
	}
}

// TestCorruptRecordIsolated: flipping bytes in one record invalidates only
// that record — the others load, and the damage report names the index.
func TestCorruptRecordIsolated(t *testing.T) {
	profiles := buildManyProfiles(t, 5)
	var buf bytes.Buffer
	faults.ArmT(t, &faults.Plan{CorruptRecord: func(i int, line []byte) ([]byte, bool) {
		if i != 2 {
			return line, false
		}
		bad := append([]byte(nil), line...)
		bad[len(bad)/2] ^= 0x20 // silent bit flip inside the payload
		return bad, true
	}})
	if err := WriteProfiles(&buf, profiles); err != nil {
		t.Fatal(err)
	}
	faults.Disarm()

	loaded, recErrs, err := ReadProfilesReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(profiles)-1 {
		t.Fatalf("loaded %d, want %d (exactly the undamaged records)", len(loaded), len(profiles)-1)
	}
	if len(recErrs) != 1 || recErrs[0].Index != 2 {
		t.Fatalf("damage report = %v, want exactly record 2", recErrs)
	}
	// ReadProfilesFile folds the damage into a loud error but keeps the
	// prefix.
	buf.Reset()
	faults.Arm(&faults.Plan{CorruptRecord: func(i int, line []byte) ([]byte, bool) {
		if i != 2 {
			return line, false
		}
		bad := append([]byte(nil), line...)
		bad[len(bad)/2] ^= 0x20
		return bad, true
	}})
	if err := WriteProfiles(&buf, profiles); err != nil {
		t.Fatal(err)
	}
	faults.Disarm()
	path := filepath.Join(t.TempDir(), "damaged.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfilesFile(path)
	if err == nil || !strings.Contains(err.Error(), "snapshot damaged") {
		t.Fatalf("ReadProfilesFile err = %v, want loud damage error", err)
	}
	if len(got) != len(profiles)-1 {
		t.Fatalf("ReadProfilesFile kept %d records, want %d", len(got), len(profiles)-1)
	}
}

// TestChecksumCatchesValueTampering: the CRC rejects a record whose JSON
// still parses but whose numbers were altered — exactly the corruption
// DisallowUnknownFields and schema validation cannot see.
func TestChecksumCatchesValueTampering(t *testing.T) {
	profiles := buildManyProfiles(t, 2)
	var buf bytes.Buffer
	if err := WriteProfiles(&buf, profiles); err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(buf.String(), `"allocs":1`, `"allocs":2`, 1)
	if tampered == buf.String() {
		t.Fatal("tamper target not found in serialized snapshot")
	}
	_, recErrs, err := ReadProfilesReport(strings.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	if len(recErrs) != 1 || !strings.Contains(recErrs[0].Err.Error(), "checksum mismatch") {
		t.Fatalf("damage report = %v, want one checksum mismatch", recErrs)
	}
}

// TestReadProfilesExtraRecords: the header's count bounds the records
// from above as well as below. A line past it does not load, whether it
// parses or not; it is stream-level damage, so ReadProfilesFile fails.
func TestReadProfilesExtraRecords(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProfiles(&buf, buildManyProfiles(t, 3)); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n") // header, 3 records, ""
	for name, c := range map[string]struct {
		snapshot string
		count    int
	}{
		"header count lowered": {strings.Replace(buf.String(), `"count":3`, `"count":1`, 1), 1},
		"record repeated":      {strings.Join([]string{lines[0], lines[1], lines[2], lines[2], lines[3]}, ""), 3},
		"over-long line past":  {buf.String() + strings.Repeat("x", maxRecordBytes+1) + "\n", 3},
	} {
		loaded, recErrs, err := ReadProfilesReport(strings.NewReader(c.snapshot))
		if err != nil {
			t.Fatalf("%s: stream-level error %v", name, err)
		}
		want := fmt.Sprintf("header promised %d records, found more", c.count)
		if len(loaded) != c.count || len(recErrs) != 1 || recErrs[0].Index != -1 || !strings.Contains(recErrs[0].Error(), want) {
			t.Fatalf("%s: loaded %d, damage %v; want %d loaded and one stream-level %q", name, len(loaded), recErrs, c.count, want)
		}
		path := filepath.Join(t.TempDir(), "extra.json")
		if err := os.WriteFile(path, []byte(c.snapshot), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadProfilesFile(path); err == nil || !strings.Contains(err.Error(), "snapshot damaged") {
			t.Fatalf("%s: ReadProfilesFile err = %v, want damage", name, err)
		}
	}
}

// TestWriteProfilesFileAtomic: a failed write must leave the previous
// snapshot intact (temp + rename), and a successful one replaces it whole.
func TestWriteProfilesFileAtomic(t *testing.T) {
	profiles := buildManyProfiles(t, 3)
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := WriteProfilesFile(path, profiles[:1]); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A second write lands atomically: the file is never the torn middle
	// state because the data moves via rename. (The torn state is only
	// reachable through the TornWrite fault, exercised above.)
	if err := WriteProfilesFile(path, profiles); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(before, after) {
		t.Fatal("second write did not replace the snapshot")
	}
	loaded, err := ReadProfilesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(profiles) {
		t.Fatalf("reloaded %d profiles, want %d", len(loaded), len(profiles))
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("destination dir has %d entries, want just the snapshot", len(entries))
	}
}

// TestReadProfilesRejectsGarbageStreams: inputs that are not v3 snapshots
// fail loudly at the stream level — the retired v1 format (one JSON array
// of records) included.
func TestReadProfilesRejectsGarbageStreams(t *testing.T) {
	for _, in := range []string{
		"",
		"not json at all",
		`{"format":"something-else","version":3,"count":0}`,
		`{"format":"chameleon-profiles","version":99,"count":0}`,
		`{"format":"chameleon-profiles","version":3,"count":-4}`,
		`[{"context":"a:1","declared":"HashMap","impl":"HashMap","allocs":1,"live":0}]`,
	} {
		if _, _, err := ReadProfilesReport(strings.NewReader(in)); err == nil {
			t.Fatalf("garbage stream %q accepted", in)
		}
	}
}

// TestReadProfilesRejectsV2: a v2 snapshot, whose records may carry the
// retired ownerSamples/ownerMoves fields, fails once at its header as an
// unsupported version rather than once per record.
func TestReadProfilesRejectsV2(t *testing.T) {
	body := `{"context":"a:1","declared":"HashMap","impl":"HashMap","allocs":1,"live":0,"ownerSamples":4,"ownerMoves":1}`
	in := fmt.Sprintf(`{"format":"chameleon-profiles","version":2,"count":1}`+"\n"+`{"crc":"%08x","profile":%s}`+"\n",
		crcOf([]byte(body)), body)
	profiles, recErrs, err := ReadProfilesReport(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "unsupported version 2") {
		t.Fatalf("v2 snapshot: err = %v, want unsupported version 2", err)
	}
	if len(profiles) != 0 || len(recErrs) != 0 {
		t.Fatalf("v2 snapshot read past its header: %d profiles, %d record errors", len(profiles), len(recErrs))
	}
}

// TestReadProfilesValidatesValues: records carrying values no profiler run
// could produce — negative counts, NaN statistics, more live than
// allocated — are rejected by validation even with a correct checksum.
func TestReadProfilesValidatesValues(t *testing.T) {
	writeOne := func(mutate func(*profileWire)) string {
		profiles := buildManyProfiles(t, 1)
		w := profiles[0].toWire()
		mutate(&w)
		return wireSnapshot(t, w)
	}
	cases := map[string]func(*profileWire){
		"negative allocs": func(w *profileWire) { w.Allocs = -1 },
		"overflow count":  func(w *profileWire) { w.GCCycles = int64(1) << 60 },
		"live > allocs":   func(w *profileWire) { w.Live = w.Allocs + 1 },
		"absurd size":     func(w *profileWire) { w.MaxSizeAvg = 1e18 },
		"empty context":   func(w *profileWire) { w.Context = "" },
	}
	for name, mutate := range cases {
		_, recErrs, err := ReadProfilesReport(strings.NewReader(writeOne(mutate)))
		if err != nil {
			t.Fatalf("%s: stream-level error %v, want per-record", name, err)
		}
		if len(recErrs) != 1 {
			t.Fatalf("%s: damage report = %v, want one rejected record", name, recErrs)
		}
	}
}

// wireSnapshot serializes one already-mutated wire record as a valid v3
// snapshot (correct CRC), so only schema validation can reject it.
func wireSnapshot(t *testing.T, w profileWire) string {
	t.Helper()
	return rawSnapshot(string(mustJSON(t, w)))
}

// rawSnapshot frames one profile body, byte for byte, as a one-record v3
// snapshot whose CRC covers exactly those bytes, so only decoding and
// validation can reject it.
func rawSnapshot(body string) string {
	return fmt.Sprintf(`{"format":%q,"version":%d,"count":1}`+"\n"+`{"crc":"%08x","profile":%s}`+"\n",
		snapshotFormat, snapshotVersion, crcOf([]byte(body)), body)
}

// reframeMiddle writes three profiles and rewrites the middle record line
// with reframe, given the checksum and profile body the writer stored.
func reframeMiddle(t *testing.T, reframe func(crc string, body []byte) string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteProfiles(&buf, buildManyProfiles(t, 3)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	var rec struct {
		CRC     string          `json:"crc"`
		Profile json.RawMessage `json:"profile"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &rec); err != nil {
		t.Fatal(err)
	}
	lines[2] = reframe(rec.CRC, rec.Profile)
	return strings.Join(lines, "\n")
}

// expectOneBadRecord asserts that the middle record of a reframeMiddle
// snapshot is the only damage and that its neighbours still load.
func expectOneBadRecord(t *testing.T, snapshot string) {
	t.Helper()
	loaded, recErrs, err := ReadProfilesReport(strings.NewReader(snapshot))
	if err != nil {
		t.Fatalf("stream-level error %v, want per-record", err)
	}
	if len(loaded) != 2 || len(recErrs) != 1 || recErrs[0].Index != 1 {
		t.Fatalf("loaded %d, damage %v, want record 1 rejected and its 2 neighbours loaded", len(loaded), recErrs)
	}
}

// TestFrameRejectsRespacedRecord: a record re-encoded the way Python's
// json.dumps writes it (", " and ": " separators) is not the bytes its CRC
// was taken over, even though it parses to the same values.
func TestFrameRejectsRespacedRecord(t *testing.T) {
	respace := strings.NewReplacer(`":`, `": `, `,"`, `, "`)
	expectOneBadRecord(t, reframeMiddle(t, func(crc string, body []byte) string {
		return respace.Replace(fmt.Sprintf(`{"crc":%q,"profile":%s}`, crc, body))
	}))
}

// TestFrameRejectsSwappedKeys: the frame's keys come in one order only.
func TestFrameRejectsSwappedKeys(t *testing.T) {
	expectOneBadRecord(t, reframeMiddle(t, func(crc string, body []byte) string {
		return fmt.Sprintf(`{"profile":%s,"crc":%q}`, body, crc)
	}))
}

// TestFrameRejectsExtraKey: the frame carries the CRC and the profile and
// nothing else.
func TestFrameRejectsExtraKey(t *testing.T) {
	expectOneBadRecord(t, reframeMiddle(t, func(crc string, body []byte) string {
		return fmt.Sprintf(`{"crc":%q,"profile":%s,"writer":"other"}`, crc, body)
	}))
}
