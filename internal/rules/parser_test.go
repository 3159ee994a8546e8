package rules

import (
	"strings"
	"testing"

	"chameleon/internal/spec"
)

func mustParseRule(t *testing.T, src string) *Rule {
	t.Helper()
	r, err := ParseRule(src)
	if err != nil {
		t.Fatalf("ParseRule(%q): %v", src, err)
	}
	return r
}

func TestParsePaperExampleRule(t *testing.T) {
	// The example rule from §3.3.1:
	// ArrayList : #contains>X && maxSize>Y -> LinkedHashSet
	r := mustParseRule(t, "ArrayList : #contains > X && maxSize > Y -> LinkedHashSet")
	if r.Src != spec.KindArrayList {
		t.Fatalf("src = %v", r.Src)
	}
	if r.Act.Kind != ActReplace || r.Act.Impl != spec.KindLinkedHashSet {
		t.Fatalf("action = %+v", r.Act)
	}
	and, ok := r.Cond.(*AndCond)
	if !ok {
		t.Fatalf("cond is %T, want AndCond", r.Cond)
	}
	left, ok := and.L.(*Comparison)
	if !ok || left.Op != ">" {
		t.Fatalf("left = %#v", and.L)
	}
	if oc, ok := left.L.(*OpCount); !ok || oc.Name != "contains" {
		t.Fatalf("left lhs = %#v", left.L)
	}
	if pr, ok := left.R.(*ParamRef); !ok || pr.Name != "X" {
		t.Fatalf("left rhs = %#v", left.R)
	}
	right := and.R.(*Comparison)
	if mr, ok := right.L.(*MetricRef); !ok || mr.Name != "maxSize" {
		t.Fatalf("right lhs = %#v", right.L)
	}
}

func TestParseOverloadedOpNames(t *testing.T) {
	r := mustParseRule(t, "LinkedList : #get(int) > 10 -> ArrayList")
	cmp := r.Cond.(*Comparison)
	if oc := cmp.L.(*OpCount); oc.Name != "get(int)" {
		t.Fatalf("op name = %q", oc.Name)
	}
	r2 := mustParseRule(t, "HashMap : #get(Object) > 10 -> ArrayMap")
	if oc := r2.Cond.(*Comparison).L.(*OpCount); oc.Name != "get(Object)" {
		t.Fatalf("op name = %q", oc.Name)
	}
}

func TestParseCapacityForms(t *testing.T) {
	r := mustParseRule(t, "HashMap : maxSize < 16 -> ArrayMap(maxSize)")
	if !r.Act.Capacity.Present || !r.Act.Capacity.FromMaxSize {
		t.Fatalf("capacity = %+v", r.Act.Capacity)
	}
	r2 := mustParseRule(t, "ArrayList : maxSize > initialCapacity -> ArrayList(64)")
	if !r2.Act.Capacity.Present || r2.Act.Capacity.Value != 64 {
		t.Fatalf("capacity = %+v", r2.Act.Capacity)
	}
	r3 := mustParseRule(t, "Collection : maxSize > initialCapacity -> setCapacity(maxSize)")
	if r3.Act.Kind != ActSetCapacity || !r3.Act.Capacity.FromMaxSize {
		t.Fatalf("action = %+v", r3.Act)
	}
}

func TestParseAdvisoryActions(t *testing.T) {
	cases := map[string]ActionKind{
		"Collection : #allOps == 0 -> avoid":                       ActAvoid,
		"Collection : #allOps == #copied -> eliminateCopies":       ActEliminateCopies,
		"Collection : emptyIterators > 10 -> removeIterator":       ActRemoveIterator,
		`Collection : #allOps == 0 -> avoid "Space/Time: message"`: ActAvoid,
	}
	for src, want := range cases {
		r := mustParseRule(t, src)
		if r.Act.Kind != want {
			t.Errorf("%q: action = %v, want %v", src, r.Act.Kind, want)
		}
	}
}

func TestParseMessage(t *testing.T) {
	r := mustParseRule(t, `HashSet : maxSize < 16 -> ArraySet "Space: ArraySet more efficient"`)
	if r.Message != "Space: ArraySet more efficient" {
		t.Fatalf("message = %q", r.Message)
	}
	if r.Category() != "Space" {
		t.Fatalf("category = %q", r.Category())
	}
	r2 := mustParseRule(t, `Collection : #allOps == 0 -> avoid "Space/Time: x"`)
	if r2.Category() != "Space/Time" {
		t.Fatalf("category = %q", r2.Category())
	}
	r3 := mustParseRule(t, `Collection : #allOps == 0 -> avoid "no category"`)
	if r3.Category() != "" {
		t.Fatalf("category = %q", r3.Category())
	}
}

func TestParseArithmeticAndPrecedence(t *testing.T) {
	r := mustParseRule(t, "LinkedList : #addAt + #removeAt * 2 - 1 < X -> ArrayList")
	cmp := r.Cond.(*Comparison)
	// Must parse as ((#addAt + (#removeAt*2)) - 1)
	sub := cmp.L.(*BinaryExpr)
	if sub.Op != "-" {
		t.Fatalf("top op = %q", sub.Op)
	}
	add := sub.L.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("second op = %q", add.Op)
	}
	mul := add.R.(*BinaryExpr)
	if mul.Op != "*" {
		t.Fatalf("inner op = %q", mul.Op)
	}
}

func TestParseParenthesizedExprVsCond(t *testing.T) {
	// Parenthesized arithmetic on the left of a comparison.
	r := mustParseRule(t, "LinkedList : (#addAt + #removeFirst) < X -> ArrayList")
	cmp := r.Cond.(*Comparison)
	if b, ok := cmp.L.(*BinaryExpr); !ok || b.Op != "+" {
		t.Fatalf("lhs = %#v", cmp.L)
	}
	// Parenthesized condition group.
	r2 := mustParseRule(t, "Collection : (#add > 1 || #remove > 1) && maxSize > 0 -> avoid")
	and := r2.Cond.(*AndCond)
	if _, ok := and.L.(*OrCond); !ok {
		t.Fatalf("grouped or lost: %#v", and.L)
	}
}

func TestParseBooleanPrecedence(t *testing.T) {
	// && binds tighter than ||.
	r := mustParseRule(t, "Collection : #add > 1 || #remove > 1 && maxSize > 5 -> avoid")
	or, ok := r.Cond.(*OrCond)
	if !ok {
		t.Fatalf("top = %T, want OrCond", r.Cond)
	}
	if _, ok := or.R.(*AndCond); !ok {
		t.Fatalf("rhs = %T, want AndCond", or.R)
	}
}

func TestParseNot(t *testing.T) {
	r := mustParseRule(t, "Collection : !(#add > 1) && maxSize > 0 -> avoid")
	and := r.Cond.(*AndCond)
	if _, ok := and.L.(*NotCond); !ok {
		t.Fatalf("not lost: %#v", and.L)
	}
}

func TestParseMultipleRulesAndComments(t *testing.T) {
	src := `
// first rule
HashMap : maxSize < 16 -> ArrayMap "Space: small map"
// second rule
Collection : #allOps == 0 -> avoid
`
	rs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) != 2 {
		t.Fatalf("rules = %d", len(rs.Rules))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                           // handled by ParseRule count check
		"NoSuchType : #add > 1 -> ArrayList",         // unknown src type
		"ArrayList #add > 1 -> ArrayList",            // missing colon
		"ArrayList : #add > 1 ArrayList",             // missing arrow
		"ArrayList : #add > 1 -> NoSuchImpl",         // unknown impl
		"ArrayList : #add > 1 -> List",               // abstract impl
		"ArrayList : #add >",                         // truncated
		"ArrayList : -> ArrayList",                   // empty cond
		"ArrayList : #add > 1 -> ArrayList(x)",       // bad capacity
		"ArrayList : # > 1 -> ArrayList",             // missing op name
		"ArrayList : setCapacity > 1 -> setCapacity", // setCapacity w/o arg
		`ArrayList : #add > 1 -> ArrayList "unterminated`,
		"ArrayList : #add $ 1 -> ArrayList", // bad char
		"ArrayList : #add & 1 -> ArrayList", // lone &
		"ArrayList : #add | 1 -> ArrayList", // lone |
		"ArrayList : #add = 1 -> ArrayList", // lone =
	}
	for _, src := range cases {
		if _, err := ParseRule(src); err == nil {
			t.Errorf("ParseRule(%q) succeeded, want error", src)
		}
	}
}

func TestParseErrorPositions(t *testing.T) {
	_, err := Parse("HashMap : maxSize < 16 -> ArrayMap\nCollection : #bogus$ > 1 -> avoid")
	if err == nil {
		t.Fatal("expected error")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if perr.Pos.Line != 2 {
		t.Fatalf("error line = %d, want 2 (got %v)", perr.Pos.Line, err)
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error string lacks position: %v", err)
	}
}

func TestLexerNumberForms(t *testing.T) {
	r := mustParseRule(t, "ArrayList : maxSize > 2.5 -> ArrayList")
	cmp := r.Cond.(*Comparison)
	if n := cmp.R.(*NumberLit); n.Value != 2.5 {
		t.Fatalf("float literal = %v", n.Value)
	}
}

func TestLexerStringEscapes(t *testing.T) {
	r := mustParseRule(t, `ArrayList : maxSize > 1 -> ArrayList "a\"b\n\t\\c"`)
	if r.Message != "a\"b\n\t\\c" {
		t.Fatalf("message = %q", r.Message)
	}
	if _, err := ParseRule(`ArrayList : maxSize > 1 -> ArrayList "bad\q"`); err == nil {
		t.Fatal("unknown escape accepted")
	}
}

// The printer quotes messages with strconv.Quote, which escapes control
// characters as \xNN and friends; the lexer must accept that full escape
// set or printed rules would not re-parse (found by FuzzParse).
func TestLexerStringEscapesRoundTrip(t *testing.T) {
	r := mustParseRule(t, `ArrayList : maxSize > 1 -> ArrayList "ctl\x10 unié"`)
	if r.Message != "ctl\x10 unié" {
		t.Fatalf("message = %q", r.Message)
	}
	printed := PrintRule(r)
	r2, err := ParseRule(printed)
	if err != nil {
		t.Fatalf("printed rule %q does not re-parse: %v", printed, err)
	}
	if r2.Message != r.Message {
		t.Fatalf("round trip changed message: %q -> %q", r.Message, r2.Message)
	}
	if _, err := ParseRule("ArrayList : maxSize > 1 -> ArrayList \"raw\nnewline\""); err == nil {
		t.Fatal("raw newline in string accepted")
	}
}

func TestActionKindStringAndMetricNames(t *testing.T) {
	for k, want := range map[ActionKind]string{
		ActReplace:         "replace",
		ActSetCapacity:     "setCapacity",
		ActAvoid:           "avoid",
		ActEliminateCopies: "eliminateCopies",
		ActRemoveIterator:  "removeIterator",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if ActionKind(99).String() != "ActionKind(99)" {
		t.Errorf("unknown action kind formatting")
	}
	if len(metricNames) < 15 {
		t.Fatalf("metric vocabulary = %d names", len(metricNames))
	}
	for _, want := range []string{"maxSize", "emptyFraction", "potential", "totUsed"} {
		if !isMetricName(want) {
			t.Fatalf("vocabulary missing %q", want)
		}
	}
	if isMetricName("frobnicate") {
		t.Fatal("non-metric accepted as a metric")
	}
	if tokEOF.String() != "end of input" || tokenKind(99).String() != "token(99)" {
		t.Fatalf("token kind names wrong")
	}
}
