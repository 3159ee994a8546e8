package profiler

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"chameleon/internal/alloctx"
	"chameleon/internal/spec"
	"chameleon/internal/stats"
)

// The snapshot record body is one JSON object per profile: everything the
// rule engine needs to run offline, including per-op means and
// deviations. appendProfile writes it and decodeProfile reads it, without
// reflection and without intermediate maps. The bytes are the ones
// encoding/json writes for the v3 wire struct, which wire_test.go keeps as
// the reference the codec is tested against: the fields of wireFields in
// that order, "evidence", the op maps, "sizeHist", "emptyIterators",
// "totObjects" and "maxObjects" left out when zero or empty, map keys in
// byte order, encoding/json's float text and its HTML-safe escaping.

// wireFields names the body's fields in the order the writer writes them.
var wireFields = [...]string{
	"context", "declared", "impl", "allocs", "live", "evidence",
	"ops", "opsMean", "opsStdDev",
	"maxSizeAvg", "maxSizeStdDev", "maxSizeMax", "finalSizeAvg", "initialCapAvg",
	// sizeHist is the per-instance maximal-size distribution (value ->
	// instance count). Rules reading emptyFraction or sizeMode depend on
	// it; a snapshot without it reports every context as never-empty when
	// evaluated offline.
	"sizeHist", "emptyIterators",
	"maxLive", "maxUsed", "maxCore", "totLive", "totUsed", "totCore",
	"totObjects", "maxObjects", "gcCycles", "potential",
}

// opOrder lists the operations in the byte order of their names, the
// order map keys are written in.
var opOrder = func() []spec.Op {
	order := make([]spec.Op, spec.NumOps)
	for i := range order {
		order[i] = spec.Op(i)
	}
	slices.SortFunc(order, func(a, b spec.Op) int { return strings.Compare(a.String(), b.String()) })
	return order
}()

// appendProfile appends p's record body to dst. A NaN or infinite
// statistic has no JSON spelling and is an error.
func appendProfile(dst []byte, p *Profile) ([]byte, error) {
	if err := checkFinite(p); err != nil {
		return dst, err
	}
	dst = append(dst, `{"context":`...)
	dst = appendString(dst, p.Context.String())
	dst = append(dst, `,"declared":`...)
	dst = appendString(dst, p.Declared.String())
	dst = append(dst, `,"impl":`...)
	dst = appendString(dst, p.Impl.String())
	dst = appendInt(dst, `,"allocs":`, p.Allocs)
	dst = appendInt(dst, `,"live":`, p.Live)
	dst = appendNonZero(dst, `,"evidence":`, p.Evidence)
	dst = appendOps(dst, `,"ops":`, &p.OpTotals, func(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) })
	dst = appendOps(dst, `,"opsMean":`, &p.OpMean, appendFloat)
	dst = appendOps(dst, `,"opsStdDev":`, &p.OpStdDev, appendFloat)
	dst = appendFloat(append(dst, `,"maxSizeAvg":`...), p.MaxSizeAvg)
	dst = appendFloat(append(dst, `,"maxSizeStdDev":`...), p.MaxSizeStdDev)
	dst = appendFloat(append(dst, `,"maxSizeMax":`...), p.MaxSizeMax)
	dst = appendFloat(append(dst, `,"finalSizeAvg":`...), p.FinalSizeAvg)
	dst = appendFloat(append(dst, `,"initialCapAvg":`...), p.InitialCapAvg)
	if p.SizeHist != nil && p.SizeHist.Count() > 0 {
		sizes := p.SizeHist.Values()
		slices.SortFunc(sizes, func(a, b int64) int {
			var x, y [20]byte
			return bytes.Compare(strconv.AppendInt(x[:0], a, 10), strconv.AppendInt(y[:0], b, 10))
		})
		dst = append(dst, `,"sizeHist":{`...)
		for i, size := range sizes {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, '"'), size, 10)
			dst = appendInt(dst, `":`, p.SizeHist.CountOf(size))
		}
		dst = append(dst, '}')
	}
	dst = appendNonZero(dst, `,"emptyIterators":`, p.EmptyIterators)
	dst = appendInt(dst, `,"maxLive":`, p.MaxHeap.Live)
	dst = appendInt(dst, `,"maxUsed":`, p.MaxHeap.Used)
	dst = appendInt(dst, `,"maxCore":`, p.MaxHeap.Core)
	dst = appendInt(dst, `,"totLive":`, p.TotHeap.Live)
	dst = appendInt(dst, `,"totUsed":`, p.TotHeap.Used)
	dst = appendInt(dst, `,"totCore":`, p.TotHeap.Core)
	dst = appendNonZero(dst, `,"totObjects":`, p.TotObjs)
	dst = appendNonZero(dst, `,"maxObjects":`, p.MaxObjs)
	dst = appendInt(dst, `,"gcCycles":`, p.GCCycles)
	dst = appendInt(dst, `,"potential":`, p.Potential())
	return append(dst, '}'), nil
}

// checkFinite reports the first NaN or infinite statistic of p.
func checkFinite(p *Profile) error {
	fields := [...]float64{p.MaxSizeAvg, p.MaxSizeStdDev, p.MaxSizeMax, p.FinalSizeAvg, p.InitialCapAvg}
	for _, vals := range [...][]float64{fields[:], p.OpMean[:], p.OpStdDev[:]} {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("profiler: unsupported value %v in the profile of %s", v, p.Context)
			}
		}
	}
	return nil
}

func appendInt(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendNonZero writes an omitempty count.
func appendNonZero(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return appendInt(dst, key, v)
}

// appendOps writes an op map under key: its non-zero values, written by
// value, or nothing when every value is zero.
func appendOps[T int64 | float64](dst []byte, key string, vals *[spec.NumOps]T, value func([]byte, T) []byte) []byte {
	n := 0
	for _, op := range opOrder {
		if vals[op] == 0 {
			continue
		}
		if n == 0 {
			dst = append(append(dst, key...), '{')
		} else {
			dst = append(dst, ',')
		}
		dst = value(append(append(append(dst, '"'), op.String()...), '"', ':'), vals[op]) // names need no escaping
		n++
	}
	if n == 0 {
		return dst
	}
	return append(dst, '}')
}

// appendFloat writes f as encoding/json does: the shortest text that
// reads back as f, in exponent form below 1e-6 and from 1e21 on, with the
// exponent's leading zero dropped (1e-07 -> 1e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendString writes s as a JSON string, escaped as encoding/json does
// by default: '"' and '\' backslashed; \b, \f, \n, \r and \t by name and
// the other control bytes, '<', '>' and '&' as \u00XX; U+2028 and U+2029
// as \u2028 and \u2029; each byte of invalid UTF-8 as \ufffd.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

const (
	// maxWireCount is the sanity ceiling on any deserialized counter: a
	// count above 2^53 cannot have been produced by this profiler (it
	// exceeds exact float64 integers, which the Welford statistics flow
	// through) and marks a corrupt or adversarial record.
	maxWireCount = int64(1) << 53
	// maxWireSize is the sanity ceiling on any deserialized size or
	// statistic (bytes, elements, means): ~1e15, far beyond any simulated
	// heap this package can represent.
	maxWireSize = 1e15
	// maxWireContext caps the context-string length a record may intern;
	// real contexts are a handful of frames.
	maxWireContext = 4096
	// maxWireHistBuckets caps the distinct size values a deserialized
	// histogram may carry: real size distributions are narrow (§3.3.1);
	// an unbounded map is an allocation vector.
	maxWireHistBuckets = 4096
)

// decodeProfile reads one record body into a Profile. It rejects records
// no run of this profiler could have produced: NaN/Inf or negative
// statistics, overflowing counts, absurd sizes, more live than allocated
// instances, unbounded context strings, unknown kind or op names. It
// takes JSON as encoding/json does, with three spellings the writer never
// uses rejected as damage: a key matching a field only case-insensitively
// (taken as an unknown field), a key repeated within one object, and null.
// An absent field reads as zero; potential, derived from the heap
// statistics, must be an int64 and is otherwise ignored.
func decodeProfile(body []byte, contexts *alloctx.Table) (*Profile, error) {
	d := decoder{buf: body}
	p := &Profile{SizeHist: stats.NewHistogram()}
	var label []byte
	var seen uint32
	var declared, impl bool
	next := 0
	err := d.object(func(key []byte) error {
		f := next
		for string(key) != wireFields[f] {
			if f = (f + 1) % len(wireFields); f == next {
				return fmt.Errorf("decoding profile: unknown field %q", key)
			}
		}
		if seen&(1<<f) != 0 {
			return fmt.Errorf("decoding profile: repeated field %q", key)
		}
		seen |= 1 << f
		next = (f + 1) % len(wireFields)
		var err error
		switch name := wireFields[f]; name {
		case "context":
			label, err = d.str()
		case "declared":
			p.Declared, err = d.kind("declared")
			declared = true
		case "impl":
			p.Impl, err = d.kind("impl")
			impl = true
		case "allocs":
			p.Allocs, err = d.count(name)
		case "live":
			p.Live, err = d.count(name)
		case "evidence":
			p.Evidence, err = d.count(name)
		case "ops":
			err = d.opCounts(&p.OpTotals)
		case "opsMean":
			err = d.opStats(&p.OpMean, "op mean")
		case "opsStdDev":
			err = d.opStats(&p.OpStdDev, "op stddev")
		case "maxSizeAvg":
			p.MaxSizeAvg, err = d.size(name)
		case "maxSizeStdDev":
			p.MaxSizeStdDev, err = d.size(name)
		case "maxSizeMax":
			p.MaxSizeMax, err = d.size(name)
		case "finalSizeAvg":
			p.FinalSizeAvg, err = d.size(name)
		case "initialCapAvg":
			p.InitialCapAvg, err = d.size(name)
		case "sizeHist":
			err = d.hist(p.SizeHist)
		case "emptyIterators":
			p.EmptyIterators, err = d.count(name)
		case "maxLive":
			p.MaxHeap.Live, err = d.count(name)
		case "maxUsed":
			p.MaxHeap.Used, err = d.count(name)
		case "maxCore":
			p.MaxHeap.Core, err = d.count(name)
		case "totLive":
			p.TotHeap.Live, err = d.count(name)
		case "totUsed":
			p.TotHeap.Used, err = d.count(name)
		case "totCore":
			p.TotHeap.Core, err = d.count(name)
		case "totObjects":
			p.TotObjs, err = d.count(name)
		case "maxObjects":
			p.MaxObjs, err = d.count(name)
		case "gcCycles":
			p.GCCycles, err = d.count(name)
		case "potential":
			_, err = d.int()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if d.pos != len(body) {
		return nil, fmt.Errorf("decoding profile: %d stray bytes after the profile", len(body)-d.pos)
	}
	if p.Live > p.Allocs {
		return nil, fmt.Errorf("profiler: live %d exceeds allocs %d", p.Live, p.Allocs)
	}
	if len(label) == 0 || len(label) > maxWireContext {
		return nil, fmt.Errorf("profiler: context string length %d out of range", len(label))
	}
	if !declared {
		return nil, fmt.Errorf("profiler: unknown declared kind %q", "")
	}
	if !impl {
		return nil, fmt.Errorf("profiler: unknown impl kind %q", "")
	}
	p.Context = contexts.Static(string(label))
	return p, nil
}

// decoder is a cursor over one record body.
type decoder struct {
	buf []byte
	pos int
}

// syntax reports malformed JSON at the cursor.
func (d *decoder) syntax(want string) error {
	if d.pos >= len(d.buf) {
		return fmt.Errorf("decoding profile: unexpected end of the profile, want %s", want)
	}
	return fmt.Errorf("decoding profile: invalid character %q at offset %d, want %s", d.buf[d.pos], d.pos, want)
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte after whitespace.
func (d *decoder) eat(c byte) bool {
	d.space()
	if d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// object reads an object, calling value with the cursor before each
// member's value; value must consume it.
func (d *decoder) object(value func(key []byte) error) error {
	if !d.eat('{') {
		return d.syntax("an object")
	}
	if d.eat('}') {
		return nil
	}
	for {
		d.space()
		key, err := d.str()
		if err != nil {
			return err
		}
		if !d.eat(':') {
			return d.syntax("':'")
		}
		d.space()
		if err := value(key); err != nil {
			return err
		}
		if d.eat('}') {
			return nil
		}
		if !d.eat(',') {
			return d.syntax("',' or '}'")
		}
	}
}

// str reads a string and returns its text: a slice of the body when the
// string holds no escape and no byte outside ASCII, a new slice
// otherwise. As in encoding/json, each byte of invalid UTF-8 and each
// unpaired surrogate escape reads as U+FFFD.
func (d *decoder) str() ([]byte, error) {
	if d.pos >= len(d.buf) || d.buf[d.pos] != '"' {
		return nil, d.syntax("a string")
	}
	start := d.pos + 1
	for i := start; i < len(d.buf); i++ {
		switch c := d.buf[i]; {
		case c == '"':
			d.pos = i + 1
			return d.buf[start:i], nil
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return d.unquote(start, i)
		}
	}
	d.pos = len(d.buf)
	return nil, d.syntax("'\"'")
}

// unquote finishes the string begun at start whose first byte needing
// work is at i.
func (d *decoder) unquote(start, i int) ([]byte, error) {
	out := append([]byte(nil), d.buf[start:i]...)
	for i < len(d.buf) {
		c := d.buf[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return out, nil
		case c < 0x20:
			d.pos = i
			return nil, d.syntax("a string character")
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			i++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.buf[i:])
			out = utf8.AppendRune(out, r) // RuneError for an invalid byte
			i += size
		default: // an escape
			if i+1 >= len(d.buf) {
				d.pos = len(d.buf)
				return nil, d.syntax("an escape")
			}
			if e := strings.IndexByte(`"\/bfnrt`, d.buf[i+1]); e >= 0 {
				out = append(out, "\"\\/\b\f\n\r\t"[e])
				i += 2
				continue
			}
			r, ok := hex4(d.buf[i+1:])
			if !ok {
				d.pos = i + 1
				return nil, d.syntax("an escape")
			}
			i += 6
			if utf16.IsSurrogate(r) {
				// A valid pair takes the next escape too; a lone half
				// reads as U+FFFD.
				if i < len(d.buf) && d.buf[i] == '\\' {
					if r2, ok := hex4(d.buf[i+1:]); ok {
						if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
							out = utf8.AppendRune(out, pair)
							i += 6
							continue
						}
					}
				}
				r = utf8.RuneError
			}
			out = utf8.AppendRune(out, r)
		}
	}
	d.pos = len(d.buf)
	return nil, d.syntax("'\"'")
}

// hex4 reads the rune of a \u escape from b, which starts at its 'u'.
func hex4(b []byte) (rune, bool) {
	if len(b) < 5 || b[0] != 'u' {
		return 0, false
	}
	var r rune
	for _, c := range b[1:5] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// number reads a number and returns its text, checked against the JSON
// grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() ([]byte, error) {
	start, b := d.pos, d.buf
	digits := func() bool {
		n := d.pos
		for d.pos < len(b) && '0' <= b[d.pos] && b[d.pos] <= '9' {
			d.pos++
		}
		return d.pos > n
	}
	if d.pos < len(b) && b[d.pos] == '-' {
		d.pos++
	}
	if d.pos < len(b) && b[d.pos] == '0' {
		d.pos++
	} else if !digits() {
		return nil, d.syntax("a number")
	}
	if d.pos < len(b) && b[d.pos] == '.' {
		d.pos++
		if !digits() {
			return nil, d.syntax("a digit")
		}
	}
	if d.pos < len(b) && (b[d.pos] == 'e' || b[d.pos] == 'E') {
		d.pos++
		if d.pos < len(b) && (b[d.pos] == '+' || b[d.pos] == '-') {
			d.pos++
		}
		if !digits() {
			return nil, d.syntax("a digit")
		}
	}
	return b[start:d.pos], nil
}

// int reads a number that must be an int64 literal.
func (d *decoder) int() (int64, error) {
	text, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(text), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("decoding profile: number %s is not an int64", text)
	}
	return v, nil
}

// float reads a number as a float64; it fails beyond the float64 range.
func (d *decoder) float() (float64, error) {
	text, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return 0, fmt.Errorf("decoding profile: number %s is not a float64", text)
	}
	return v, nil
}

// count reads a counter, in [0, maxWireCount].
func (d *decoder) count(name string) (int64, error) {
	v, err := d.int()
	if err == nil && (v < 0 || v > maxWireCount) {
		err = fmt.Errorf("profiler: field %s out of range: %d", name, v)
	}
	return v, err
}

// size reads a size statistic, in [0, maxWireSize].
func (d *decoder) size(name string) (float64, error) {
	v, err := d.float()
	if err == nil && !(v >= 0 && v <= maxWireSize) {
		err = fmt.Errorf("profiler: field %s out of range: %v", name, v)
	}
	return v, err
}

// kind reads a collection kind's name.
func (d *decoder) kind(field string) (spec.Kind, error) {
	name, err := d.str()
	if err != nil {
		return 0, err
	}
	k, ok := spec.KindByName(string(name))
	if !ok {
		return 0, fmt.Errorf("profiler: unknown %s kind %q", field, name)
	}
	return k, nil
}

// ops reads an op map, calling value with the cursor before each
// operation's value; each operation may appear once.
func (d *decoder) ops(value func(spec.Op) error) error {
	var seen uint32
	return d.object(func(key []byte) error {
		op, ok := spec.OpByName(string(key))
		if !ok {
			return fmt.Errorf("profiler: unknown operation %q", key)
		}
		if seen&(1<<op) != 0 {
			return fmt.Errorf("decoding profile: repeated operation %q", key)
		}
		seen |= 1 << op
		return value(op)
	})
}

// opCounts reads the op totals.
func (d *decoder) opCounts(dst *[spec.NumOps]int64) error {
	return d.ops(func(op spec.Op) error {
		v, err := d.int()
		if err == nil && (v < 0 || v > maxWireCount) {
			err = fmt.Errorf("profiler: op count %s out of range: %d", op, v)
		}
		dst[op] = v
		return err
	})
}

// opStats reads the op means or deviations.
func (d *decoder) opStats(dst *[spec.NumOps]float64, what string) error {
	return d.ops(func(op spec.Op) error {
		v, err := d.float()
		if err == nil && !(v >= 0 && v <= maxWireSize) {
			err = fmt.Errorf("profiler: %s %s out of range: %v", what, op, v)
		}
		dst[op] = v
		return err
	})
}

// hist reads the size histogram into h. A bucket's key is a size as
// strconv.ParseInt reads it, so keys spelling one size differently ("5",
// "05", "+5") add up, as they did when the body was a map.
func (d *decoder) hist(h *stats.Histogram) error {
	var small [16][]byte
	keys := small[:0]
	return d.object(func(key []byte) error {
		if len(keys) == maxWireHistBuckets {
			return fmt.Errorf("profiler: size histogram has more than %d buckets, exceeds the reader cap", maxWireHistBuckets)
		}
		// The writer sorts the keys, so only a key out of order can repeat.
		if len(keys) > 0 && bytes.Compare(key, keys[len(keys)-1]) <= 0 &&
			slices.ContainsFunc(keys, func(k []byte) bool { return bytes.Equal(k, key) }) {
			return fmt.Errorf("decoding profile: repeated size histogram bucket %q", key)
		}
		keys = append(keys, key)
		size, err := strconv.ParseInt(string(key), 10, 64)
		if err != nil || size < 0 || float64(size) > maxWireSize {
			return fmt.Errorf("profiler: size histogram bucket %q out of range", key)
		}
		n, err := d.int()
		if err == nil && (n < 0 || n > maxWireCount) {
			err = fmt.Errorf("profiler: size histogram count for %q out of range: %d", key, n)
		}
		h.AddN(size, n)
		return err
	})
}
