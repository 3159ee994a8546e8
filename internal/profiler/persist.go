package profiler

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
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
// records. The v3 format defends against both:
//
//	{"format":"chameleon-profiles","version":3,"count":N}
//	{"crc":"xxxxxxxx","profile":{...}}
//	... one record per line ...
//
// Each record line carries the CRC-32 (IEEE) of its profile body's bytes
// exactly as stored, so corruption is detected per record, and the line-
// oriented layout means a torn tail invalidates only the records it
// touched: the reader loads the valid prefix and reports the rest as
// RecordErrors instead of failing wholesale. The header's count makes
// truncation detectable even when the tear falls exactly on a line
// boundary, and bounds the records the reader loads: a line past the
// count is damage, not a record. WriteProfilesFile additionally writes
// temp-file + fsync + rename, so a crash leaves either the old snapshot
// or the new one, never a hybrid.
//
// The frame is fixed, so each record is encoded once and decoded once; a
// record another tool re-encoded (re-spaced, reordered) is damage.
//
// v3 is v2 without the profile's ownerSamples/ownerMoves fields. The
// reader accepts only the current version, so a v2 file fails once, at
// its header, rather than once per record with an unknown field.

const (
	// snapshotFormat is the header's format tag.
	snapshotFormat = "chameleon-profiles"
	// snapshotVersion is the current format version.
	snapshotVersion = 3
	// maxRecordBytes caps one record line; a line longer than this is
	// corrupt by construction, not merely large.
	maxRecordBytes = 1 << 20
	// maxSnapshotRecords caps the records one snapshot may carry, so a
	// corrupt header or hostile input cannot make the reader allocate
	// unboundedly.
	maxSnapshotRecords = 1 << 20
)

// snapshotHeader is the first line of a snapshot.
type snapshotHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Count   int    `json:"count"`
}

// A record line is recordCRC, eight lowercase hex digits of the body's
// CRC-32 (IEEE), recordBody, the profile body as appendProfile writes it,
// and a closing brace.
const (
	recordCRC  = `{"crc":"`
	recordBody = `","profile":`
	crcEnd     = len(recordCRC) + 8
	recordHead = crcEnd + len(recordBody)
)

// crcHex is the CRC-32 (IEEE) of body as %08x prints it.
func crcHex(body []byte) [8]byte {
	var sum [4]byte
	var out [8]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(body))
	hex.Encode(out[:], sum[:])
	return out
}

// RecordError reports one unreadable snapshot record: its zero-based
// position and why it was rejected. Index -1 marks stream-level damage:
// fewer or more records than the header promised.
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

// WriteProfiles serializes a snapshot in the v3 checksummed record-per-
// line format, enabling the offline workflow: profile once, evaluate rule
// sets later without re-running the program. Profiles are ordered by Rank
// (descending potential, ties by total op count, then by context key) and
// map keys are sorted, so the artifact is byte-stable across runs of a
// deterministic program.
func WriteProfiles(w io.Writer, profiles []*Profile) error {
	ordered := Rank(profiles)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"format":%q,"version":%d,"count":%d}`+"\n", snapshotFormat, snapshotVersion, len(ordered))
	var line []byte
	for i, p := range ordered {
		var err error
		line, err = appendProfile(append(line[:0], recordCRC+"00000000"+recordBody...), p)
		if err != nil {
			return err
		}
		sum := crcHex(line[recordHead:])
		copy(line[len(recordCRC):], sum[:])
		line = append(line, '}')
		out := line
		if mutated, ok := faults.CorruptRecord(i, line); ok {
			out = mutated
		}
		bw.Write(out)
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

// ReadProfilesFile reads the snapshot WriteProfilesFile wrote at path.
// Contexts are re-interned into a fresh table. Unlike
// ReadProfilesFileReport it folds record damage into the error: the valid
// prefix is still returned, but any unreadable record makes the error
// non-nil, so callers fail loudly instead of silently computing on
// partial evidence. It is the snapshot input of every command that
// evaluates rules against a profile.
func ReadProfilesFile(path string) ([]*Profile, error) {
	profiles, recErrs, err := ReadProfilesFileReport(path)
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
// tolerant ReadProfilesReport — the form the chaos readback uses, where
// every input file is treated as hostile until its records checksum.
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
// record that checksums, decodes and validates, and reports the rest as
// RecordErrors — a damaged snapshot yields its valid prefix plus a
// per-record damage report instead of nothing. The error result is
// non-nil only for stream-level failures (input that is not a v3
// snapshot).
func ReadProfilesReport(r io.Reader) ([]*Profile, []RecordError, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxRecordBytes)
	if !scanLine(sc) {
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
	for idx < hdr.Count && scanLine(sc) {
		if p, err := decodeRecord(sc.Bytes(), contexts); err != nil {
			recErrs = append(recErrs, RecordError{Index: idx, Err: err})
		} else {
			out = append(out, p)
		}
		idx++
	}
	// The header's count bounds the records both ways: a line past it is
	// damage, not a record, whether it parses or not.
	if idx == hdr.Count && (scanLine(sc) || errors.Is(sc.Err(), bufio.ErrTooLong)) {
		recErrs = append(recErrs, RecordError{Index: -1,
			Err: fmt.Errorf("header promised %d records, found more", hdr.Count)})
	} else if err := sc.Err(); err != nil {
		// An over-long or unterminated line: per-record damage, not fatal.
		recErrs = append(recErrs, RecordError{Index: idx, Err: fmt.Errorf("reading record: %w", err)})
	}
	if idx < hdr.Count {
		recErrs = append(recErrs, RecordError{Index: -1,
			Err: fmt.Errorf("truncated: header promised %d records, found %d", hdr.Count, idx)})
	}
	return out, recErrs, nil
}

// scanLine advances sc past blank lines to the next non-blank one.
func scanLine(sc *bufio.Scanner) bool {
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			return true
		}
	}
	return false
}

// decodeRecord splits one record line into its CRC and body, checks the
// CRC over the body bytes as stored, and decodes and validates the body.
func decodeRecord(line []byte, contexts *alloctx.Table) (*Profile, error) {
	if len(line) <= recordHead || string(line[:len(recordCRC)]) != recordCRC ||
		string(line[crcEnd:recordHead]) != recordBody || line[len(line)-1] != '}' {
		return nil, fmt.Errorf("not a record frame")
	}
	stored, body := line[len(recordCRC):crcEnd], line[recordHead:len(line)-1]
	if sum := crcHex(body); string(sum[:]) != string(stored) {
		return nil, fmt.Errorf("checksum mismatch: record says %q, content is %s", stored, sum[:])
	}
	return decodeProfile(body, contexts)
}
