package profiler

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"chameleon/internal/alloctx"
	"chameleon/internal/atomicfile"
	"chameleon/internal/faults"
)

// Snapshot persistence (docs/ROBUSTNESS.md "Snapshot durability"). The
// offline workflow — profile once, evaluate rule sets later — only works
// if the snapshot survives the machine it was written on. Two failure
// modes matter in practice: a crash (or full disk) mid-write leaving a
// torn file, and bit rot / partial overwrites corrupting individual
// records. The v2 format defends against both:
//
//	{"format":"chameleon-profiles","version":2,"count":N}
//	{"crc":"xxxxxxxx","profile":{...}}
//	... one record per line ...
//
// Each record line carries the CRC-32 (IEEE) of its profile's canonical
// JSON, so corruption is detected per record, and the line-oriented
// layout means a torn tail invalidates only the records it touched: the
// reader loads the valid prefix and reports the rest as RecordErrors
// instead of failing wholesale. The header's count makes truncation
// detectable even when the tear falls exactly on a line boundary.
// WriteProfilesFile additionally writes temp-file + fsync + rename, so a
// crash leaves either the old snapshot or the new one, never a hybrid.

const (
	// snapshotFormat is the v2 header's format tag.
	snapshotFormat = "chameleon-profiles"
	// snapshotVersion is the current format version.
	snapshotVersion = 2
	// maxRecordBytes caps one record line; a line longer than this is
	// corrupt by construction, not merely large.
	maxRecordBytes = 1 << 20
	// maxSnapshotRecords caps the records one snapshot may carry, so a
	// corrupt header or hostile input cannot make the reader allocate
	// unboundedly.
	maxSnapshotRecords = 1 << 20
)

// snapshotHeader is the first line of a v2 snapshot.
type snapshotHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Count   int    `json:"count"`
}

// snapshotRecord is one v2 record line: the profile plus the CRC-32
// (IEEE, lowercase hex) of the profile's canonical (compact) JSON bytes.
type snapshotRecord struct {
	CRC     string          `json:"crc"`
	Profile json.RawMessage `json:"profile"`
}

// RecordError reports one unreadable snapshot record: its zero-based
// position and why it was rejected. Index -1 marks stream-level damage
// (e.g. the record count promised by the header was not reached).
type RecordError struct {
	Index int
	Err   error
}

// Error implements error.
func (e RecordError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("snapshot: %v", e.Err)
	}
	return fmt.Sprintf("record %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying cause.
func (e RecordError) Unwrap() error { return e.Err }

// WriteProfiles serializes a snapshot in the v2 checksummed record-per-
// line format, enabling the offline workflow: profile once, evaluate rule
// sets later without re-running the program. Profiles are ordered by
// descending potential (ties by context string) and maps marshal with
// sorted keys, so the artifact is byte-stable across runs of a
// deterministic program.
func WriteProfiles(w io.Writer, profiles []*Profile) error {
	ordered := Rank(profiles)
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(snapshotHeader{Format: snapshotFormat, Version: snapshotVersion, Count: len(ordered)})
	if err != nil {
		return err
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	for i, p := range ordered {
		pj, err := json.Marshal(p.toWire())
		if err != nil {
			return err
		}
		line, err := json.Marshal(snapshotRecord{
			CRC:     fmt.Sprintf("%08x", crc32.ChecksumIEEE(pj)),
			Profile: pj,
		})
		if err != nil {
			return err
		}
		if mutated, ok := faults.CorruptRecord(i, line); ok {
			line = mutated
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteProfilesFile persists a snapshot crash-safely: the bytes are
// serialized in memory and handed to atomicfile.Write — so a crash at any
// point leaves either the previous snapshot or the complete new one. The
// faults.TornWrite hook, when armed, bypasses the atomic path and
// persists the torn bytes directly (simulating a non-atomic writer dying
// mid-write) so tests can prove the reader's valid-prefix recovery.
func WriteProfilesFile(path string, profiles []*Profile) error {
	var buf bytes.Buffer
	if err := WriteProfiles(&buf, profiles); err != nil {
		return err
	}
	if err, fire := faults.SnapshotIO("write", path); fire {
		if err == nil {
			err = fmt.Errorf("profiler: injected snapshot write failure: %s", path)
		}
		return err
	}
	data := buf.Bytes()
	if torn, ok := faults.TornWrite(data); ok {
		return os.WriteFile(path, torn, 0o644)
	}
	return atomicfile.Write(path, data)
}

// ReadProfiles deserializes a snapshot written by WriteProfiles. Contexts
// are re-interned into a fresh table. Unlike ReadProfilesReport it folds
// record damage into the error: the valid prefix is still returned, but
// any unreadable record makes the error non-nil, so callers that do not
// inspect per-record reports fail loudly instead of silently computing on
// partial evidence.
func ReadProfiles(r io.Reader) ([]*Profile, error) {
	profiles, recErrs, err := ReadProfilesReport(r)
	if err != nil {
		return nil, err
	}
	if len(recErrs) > 0 {
		return profiles, fmt.Errorf("profiler: snapshot damaged: %d unreadable record(s), %d loaded (first: %v)",
			len(recErrs), len(profiles), recErrs[0])
	}
	return profiles, nil
}

// ReadProfilesFileReport opens path and reads it with the corruption-
// tolerant ReadProfilesReport — the form fleet ingest uses, where every
// input file is treated as hostile until its records checksum.
func ReadProfilesFileReport(path string) ([]*Profile, []RecordError, error) {
	if err, fire := faults.SnapshotIO("read", path); fire {
		if err == nil {
			err = fmt.Errorf("profiler: injected snapshot read failure: %s", path)
		}
		return nil, nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadProfilesReport(f)
}

// ReadProfilesReport is the corruption-tolerant reader: it loads every
// record that decodes, checksums and validates, and reports the rest as
// RecordErrors — a damaged snapshot yields its valid prefix plus a
// per-record damage report instead of nothing. The error result is
// non-nil only for stream-level failures (input that is not a v2
// snapshot).
func ReadProfilesReport(r io.Reader) ([]*Profile, []RecordError, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	if _, err := peekNonSpace(br); err != nil {
		return nil, nil, fmt.Errorf("profiler: decoding snapshot: %w", err)
	}
	return readRecords(br)
}

// peekNonSpace returns the first non-whitespace byte without consuming it.
func peekNonSpace(br *bufio.Reader) (byte, error) {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		}
		br.UnreadByte()
		return b, nil
	}
}

// readRecords reads the v2 line-oriented format.
func readRecords(br *bufio.Reader) ([]*Profile, []RecordError, error) {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 64<<10), maxRecordBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, nil, fmt.Errorf("profiler: decoding snapshot header: %w", err)
		}
		return nil, nil, fmt.Errorf("profiler: decoding snapshot: empty input")
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Format != snapshotFormat {
		return nil, nil, fmt.Errorf("profiler: decoding snapshot: unrecognized header")
	}
	if hdr.Version != snapshotVersion {
		return nil, nil, fmt.Errorf("profiler: decoding snapshot: unsupported version %d", hdr.Version)
	}
	if hdr.Count < 0 || hdr.Count > maxSnapshotRecords {
		return nil, nil, fmt.Errorf("profiler: decoding snapshot: absurd record count %d", hdr.Count)
	}

	contexts := alloctx.NewTable()
	var out []*Profile
	var recErrs []RecordError
	idx := 0
	for idx < maxSnapshotRecords && sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if p, err := decodeRecord(line, contexts); err != nil {
			recErrs = append(recErrs, RecordError{Index: idx, Err: err})
		} else {
			out = append(out, p)
		}
		idx++
	}
	if err := sc.Err(); err != nil {
		// An over-long or unterminated line: per-record damage, not fatal.
		recErrs = append(recErrs, RecordError{Index: idx, Err: fmt.Errorf("reading record: %w", err)})
	}
	if idx < hdr.Count {
		recErrs = append(recErrs, RecordError{Index: -1,
			Err: fmt.Errorf("truncated: header promised %d records, found %d", hdr.Count, idx)})
	}
	return out, recErrs, nil
}

// decodeRecord parses one v2 record line, verifies its checksum, and
// validates the profile.
func decodeRecord(line []byte, contexts *alloctx.Table) (*Profile, error) {
	var rec snapshotRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("parsing: %w", err)
	}
	if len(rec.Profile) == 0 {
		return nil, fmt.Errorf("missing profile body")
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, rec.Profile); err != nil {
		return nil, fmt.Errorf("parsing profile: %w", err)
	}
	sum := fmt.Sprintf("%08x", crc32.ChecksumIEEE(compact.Bytes()))
	if sum != rec.CRC {
		return nil, fmt.Errorf("checksum mismatch: record says %s, content is %s", rec.CRC, sum)
	}
	var w profileWire
	dec := json.NewDecoder(bytes.NewReader(rec.Profile))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	return w.toProfile(contexts)
}
