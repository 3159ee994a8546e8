package rules

import (
	"strconv"

	"chameleon/internal/spec"
)

// parser is a recursive-descent parser for the rule language.
type parser struct {
	toks []token
	i    int
}

// Parse parses a whole rule set.
func Parse(src string) (*RuleSet, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	rs := &RuleSet{}
	for p.cur().kind != tokEOF {
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		rs.Rules = append(rs.Rules, r)
	}
	return rs, nil
}

// ParseRule parses exactly one rule.
func ParseRule(src string) (*Rule, error) {
	rs, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(rs.Rules) != 1 {
		return nil, errf(Pos{1, 1}, "expected exactly one rule, got %d", len(rs.Rules))
	}
	return rs.Rules[0], nil
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) peek() token { return p.toks[min(p.i+1, len(p.toks)-1)] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.cur().kind != k {
		return token{}, errf(p.cur().pos, "expected %v, found %v", k, p.describe(p.cur()))
	}
	return p.advance(), nil
}

func (p *parser) describe(t token) string {
	if t.kind == tokIdent || t.kind == tokNumber {
		return "'" + t.text + "'"
	}
	return t.kind.String()
}

// parseRule := srcType ':' cond '->' action [STRING]
func (p *parser) parseRule() (*Rule, error) {
	start := p.cur().pos
	tyTok, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	src, ok := spec.KindByName(tyTok.text)
	if !ok {
		return nil, errf(tyTok.pos, "unknown source type %q", tyTok.text)
	}
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	cond, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokArrow); err != nil {
		return nil, err
	}
	act, err := p.parseAction()
	if err != nil {
		return nil, err
	}
	r := &Rule{Src: src, Cond: cond, Act: act, At: start}
	if p.cur().kind == tokString {
		r.Message = p.advance().text
	}
	return r, nil
}

// parseAction := implType ['(' capacity ')']
//
//	| 'setCapacity' '(' capacity ')'
//	| 'avoid' | 'eliminateCopies' | 'removeIterator'
func (p *parser) parseAction() (Action, error) {
	tok, err := p.expect(tokIdent)
	if err != nil {
		return Action{}, err
	}
	act := Action{At: tok.pos}
	switch tok.text {
	case "avoid":
		act.Kind = ActAvoid
		return act, nil
	case "eliminateCopies":
		act.Kind = ActEliminateCopies
		return act, nil
	case "removeIterator":
		act.Kind = ActRemoveIterator
		return act, nil
	case "setCapacity":
		act.Kind = ActSetCapacity
		capSpec, err := p.parseCapArg()
		if err != nil {
			return Action{}, err
		}
		if !capSpec.Present {
			return Action{}, errf(tok.pos, "setCapacity requires a capacity argument")
		}
		act.Capacity = capSpec
		return act, nil
	}
	impl, ok := spec.KindByName(tok.text)
	if !ok {
		return Action{}, errf(tok.pos, "unknown implementation type %q", tok.text)
	}
	if impl.IsAbstract() {
		return Action{}, errf(tok.pos, "%q is abstract and cannot be an implementation type", tok.text)
	}
	act.Kind = ActReplace
	act.Impl = impl
	if p.cur().kind == tokLParen {
		capSpec, err := p.parseCapArg()
		if err != nil {
			return Action{}, err
		}
		act.Capacity = capSpec
	}
	return act, nil
}

// parseCapArg := '(' (INT | 'maxSize') ')'
func (p *parser) parseCapArg() (CapSpec, error) {
	if p.cur().kind != tokLParen {
		return CapSpec{}, nil
	}
	p.advance()
	var cs CapSpec
	cs.Present = true
	switch t := p.cur(); t.kind {
	case tokNumber:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return CapSpec{}, errf(t.pos, "capacity must be an integer, got %q", t.text)
		}
		cs.Value = v
		p.advance()
	case tokIdent:
		if t.text != "maxSize" {
			return CapSpec{}, errf(t.pos, "capacity must be an integer or maxSize, got %q", t.text)
		}
		cs.FromMaxSize = true
		p.advance()
	default:
		return CapSpec{}, errf(t.pos, "capacity must be an integer or maxSize")
	}
	if _, err := p.expect(tokRParen); err != nil {
		return CapSpec{}, err
	}
	return cs, nil
}

// parseOr := parseAnd { '||' parseAnd }
func (p *parser) parseOr() (Cond, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOrOr {
		at := p.advance().pos
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &OrCond{L: l, R: r, At: at}
	}
	return l, nil
}

// parseAnd := parseUnary { '&&' parseUnary }
func (p *parser) parseAnd() (Cond, error) {
	l, err := p.parseUnaryCond()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokAndAnd {
		at := p.advance().pos
		r, err := p.parseUnaryCond()
		if err != nil {
			return nil, err
		}
		l = &AndCond{L: l, R: r, At: at}
	}
	return l, nil
}

// parseUnaryCond := '!' parseUnaryCond | comparison
// A leading '(' is ambiguous between a parenthesized condition and a
// parenthesized arithmetic expression (both occur in Table 2); the parser
// resolves it by trying a condition first and falling back to a
// comparison whose left side starts with a parenthesized expression.
func (p *parser) parseUnaryCond() (Cond, error) {
	if p.cur().kind == tokNot {
		at := p.advance().pos
		c, err := p.parseUnaryCond()
		if err != nil {
			return nil, err
		}
		return &NotCond{C: c, At: at}, nil
	}
	if p.cur().kind == tokLParen {
		save := p.i
		p.advance()
		c, err := p.parseOr()
		if err == nil {
			if _, err2 := p.expect(tokRParen); err2 == nil {
				// Only a genuine condition group: a comparison must follow
				// inside, which parseOr guarantees (comparisons are the
				// only leaves). But "(a+b) > c" would have failed above.
				return c, nil
			}
		}
		p.i = save // fall back: parenthesized arithmetic expression
	}
	return p.parseComparison()
}

// parseComparison := expr relop expr
func (p *parser) parseComparison() (Cond, error) {
	l, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var op string
	t := p.cur()
	switch t.kind {
	case tokEq:
		op = "=="
	case tokNeq:
		op = "!="
	case tokLt:
		op = "<"
	case tokLe:
		op = "<="
	case tokGt:
		op = ">"
	case tokGe:
		op = ">="
	default:
		return nil, errf(t.pos, "expected comparison operator, found %v", p.describe(t))
	}
	p.advance()
	r, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Comparison{Op: op, L: l, R: r, At: t.pos}, nil
}

// parseExpr := term { ('+'|'-') term }
func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokPlus && t.kind != tokMinus {
			return l, nil
		}
		p.advance()
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		op := "+"
		if t.kind == tokMinus {
			op = "-"
		}
		l = &BinaryExpr{Op: op, L: l, R: r, At: t.pos}
	}
}

// parseTerm := factor { ('*'|'/') factor }
func (p *parser) parseTerm() (Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokStar && t.kind != tokSlash {
			return l, nil
		}
		p.advance()
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		op := "*"
		if t.kind == tokSlash {
			op = "/"
		}
		l = &BinaryExpr{Op: op, L: l, R: r, At: t.pos}
	}
}

// parseFactor := NUMBER | '#' opName | '@' opName | IDENT | '(' expr ')'
func (p *parser) parseFactor() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errf(t.pos, "bad number %q", t.text)
		}
		return &NumberLit{Value: v, At: t.pos}, nil
	case tokHash:
		p.advance()
		name, err := p.parseOpName()
		if err != nil {
			return nil, err
		}
		return &OpCount{Name: name, At: t.pos}, nil
	case tokAt:
		p.advance()
		name, err := p.parseOpName()
		if err != nil {
			return nil, err
		}
		return &OpVar{Name: name, At: t.pos}, nil
	case tokIdent:
		p.advance()
		if t.text == "stable" && p.cur().kind == tokLParen {
			p.advance()
			arg, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return &StableRef{Name: arg.text, At: t.pos}, nil
		}
		// Name resolution between metric and parameter happens in the
		// checker; the parser emits MetricRef for names in the metric
		// vocabulary and ParamRef otherwise.
		if isMetricName(t.text) {
			return &MetricRef{Name: t.text, At: t.pos}, nil
		}
		return &ParamRef{Name: t.text, At: t.pos}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, errf(t.pos, "expected expression, found %v", p.describe(t))
}

// parseOpName := IDENT ['(' IDENT ')']   (e.g. add, get(int), get(Object))
func (p *parser) parseOpName() (string, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return "", err
	}
	name := t.text
	if p.cur().kind == tokLParen && p.peek().kind == tokIdent {
		// Only consume the parenthesized suffix if it completes a known
		// overloaded operation name like get(int) / get(Object).
		if arg := p.peek().text; spec.IsOverloadedOp(name, arg) {
			p.advance() // (
			p.advance() // arg
			if _, err := p.expect(tokRParen); err != nil {
				return "", err
			}
			name = name + "(" + arg + ")"
		}
	}
	return name, nil
}

// metricNames is the tracedata/heapdata vocabulary of Fig. 4 plus the
// derived metrics the profiler exposes. A name maps to true when the
// metric is heap-derived: computed from the simulated heap's GC cycles,
// which online verification's evidence windows do not carry
// (Rule.ReadsHeap).
var metricNames = map[string]bool{
	"size": false, "maxSize": false, "initialCapacity": false,
	"allocs": false, "liveObjects": false, "emptyIterators": false,
	"emptyFraction": false, "sizeMode": false,
	"maxLive": true, "totLive": true, "maxUsed": true, "totUsed": true,
	"maxCore": true, "totCore": true, "maxObjects": true, "totObjects": true,
	"potential": true, "gcCycles": true,
}

func isMetricName(s string) bool {
	_, ok := metricNames[s]
	return ok
}
