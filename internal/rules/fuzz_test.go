package rules

import (
	"strings"
	"testing"
)

// FuzzParse exercises the lexer and parser with arbitrary input: they must
// never panic, and whenever parsing succeeds the printed form must
// re-parse to the same printed form (print∘parse idempotence).
func FuzzParse(f *testing.F) {
	seeds := []string{
		BuiltinSource,
		ExtendedSource,
		"ArrayList : #contains > X && maxSize > Y -> LinkedHashSet",
		"HashMap : maxSize < 16 -> ArrayMap(maxSize)",
		"Collection : #allOps == 0 -> avoid \"Space/Time: m\"",
		"Collection : maxSize > initialCapacity -> setCapacity(maxSize)",
		"LinkedList : (#addAt + #addAllAt) / 2 < X -> ArrayList",
		"HashMap : stable(maxSize) < S -> OpenHashMap",
		"A : B -> C",
		": : :",
		"-> -> ->",
		"#@#@",
		`"unterminated`,
		"Collection : !(#add > 1) || #remove != 0 && size <= 2.5 -> removeIterator",
		strings.Repeat("(", 100),
		"ArrayList : #get(int) > 1 -> ArrayList // comment\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		rs, err := Parse(src)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		printed := Print(rs)
		rs2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not re-parse:\n  in:  %q\n  out: %q\n  err: %v", src, printed, err)
		}
		if Print(rs2) != printed {
			t.Fatalf("print not idempotent:\n  1: %q\n  2: %q", printed, Print(rs2))
		}
	})
}

// FuzzVet asserts the analyzer total: on any rule set the parser accepts —
// vocabulary-clean or not — Vet must return without panicking, and its
// diagnostics must carry valid rule indices. The analyzer also runs under
// an empty parameter environment, where every parameter is unbound and all
// bounds widen.
func FuzzVet(f *testing.F) {
	seeds := []string{
		BuiltinSource,
		ExtendedSource,
		"ArrayList : maxSize < 2 && maxSize > Y -> LinkedHashSet",
		"List : #put > X -> ArrayList",
		"ArrayList : maxSize > Y -> ArrayList",
		"HashMap : #get(Object) / 0 > X -> ArrayMap",
		"HashSet : stable(maxSize) < S -> OpenHashSet",
		"HashMap : size > 0 && stable(maxSize) > S -> OpenHashMap",
		"Collection : !(#allOps == 0) || maxSize / maxSize > 1 -> avoid",
		"ArrayList : #frob > unboundParam -> LinkedList", // fails Check; Vet must still hold
		"LinkedList : #get(int) >= 0 -> ArrayList\nLinkedList : #get(int) > X -> ArrayList\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		rs, err := Parse(src)
		if err != nil {
			return
		}
		for _, params := range []Params{DefaultParams, nil} {
			for _, d := range vet(rs, params) {
				if d.Rule < 1 || d.Rule > len(rs.Rules) {
					t.Fatalf("diagnostic rule index %d out of range [1,%d]: %v", d.Rule, len(rs.Rules), d)
				}
				if d.Code == "" || d.Message == "" {
					t.Fatalf("diagnostic missing code or message: %+v", d)
				}
			}
		}
	})
}
