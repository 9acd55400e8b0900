package overlog

import (
	"fmt"
)

// Parse parses Overlog source text into a Program. It performs purely
// syntactic checks; installation into a Runtime performs the semantic
// ones (declared tables, arity, safety, stratification).
func Parse(src string) (*Program, error) {
	toks, pragmas, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	prog.Pragmas = pragmas
	return prog, nil
}

// MustParse parses source text and panics on error. Intended for
// embedded rule sets shipped inside this repository, where a parse
// failure is a programming error.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) peek() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, p.errf(t, "expected %s in %s, found %s", k, what, t)
	}
	return p.advance(), nil
}

// isKeyword reports whether the current token is the given identifier.
func (p *parser) isKeyword(kw string) bool {
	return p.cur().kind == tokIdent && p.cur().text == kw
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	if p.isKeyword("program") {
		p.advance()
		name, err := p.expect(tokIdent, "program header")
		if err != nil {
			return nil, err
		}
		prog.Name = name.text
		if _, err := p.expect(tokSemi, "program header"); err != nil {
			return nil, err
		}
	}
	for p.cur().kind != tokEOF {
		switch {
		case p.isKeyword("table"):
			d, err := p.parseTableDecl(false)
			if err != nil {
				return nil, err
			}
			prog.Tables = append(prog.Tables, d)
		case p.isKeyword("event"):
			d, err := p.parseTableDecl(true)
			if err != nil {
				return nil, err
			}
			prog.Tables = append(prog.Tables, d)
		case p.isKeyword("periodic"):
			d, err := p.parsePeriodicDecl()
			if err != nil {
				return nil, err
			}
			prog.Periodics = append(prog.Periodics, d)
		case p.isKeyword("watch"):
			d, err := p.parseWatchDecl()
			if err != nil {
				return nil, err
			}
			prog.Watches = append(prog.Watches, d)
		default:
			if err := p.parseRuleOrFact(prog); err != nil {
				return nil, err
			}
		}
	}
	return prog, nil
}

// parseTableDecl parses "table name(Col: type, ...) keys(0, 1) durable;"
// (both modifiers optional) or the event form without them.
func (p *parser) parseTableDecl(event bool) (*TableDecl, error) {
	kw := p.advance() // table / event
	name, err := p.expect(tokIdent, "table declaration")
	if err != nil {
		return nil, err
	}
	d := &TableDecl{Name: name.text, Event: event, Line: kw.line, Col: kw.col}
	if _, err := p.expect(tokLParen, "table declaration"); err != nil {
		return nil, err
	}
	for {
		colName := p.cur()
		if colName.kind != tokVar && colName.kind != tokIdent {
			return nil, p.errf(colName, "expected column name in declaration of %s, found %s", d.Name, colName)
		}
		p.advance()
		if _, err := p.expect(tokColon, "column declaration"); err != nil {
			return nil, err
		}
		tname, err := p.expect(tokIdent, "column type")
		if err != nil {
			return nil, err
		}
		kind, ok := KindByName(tname.text)
		if !ok {
			return nil, p.errf(tname, "unknown column type %q (want int, float, string, bool, addr, list, or any)", tname.text)
		}
		d.Cols = append(d.Cols, ColDecl{Name: colName.text, Type: kind})
		if p.cur().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen, "table declaration"); err != nil {
		return nil, err
	}
	if p.isKeyword("keys") {
		if event {
			return nil, p.errf(p.cur(), "event table %s may not declare keys", d.Name)
		}
		p.advance()
		if _, err := p.expect(tokLParen, "keys clause"); err != nil {
			return nil, err
		}
		for {
			it, err := p.expect(tokInt, "keys clause")
			if err != nil {
				return nil, err
			}
			idx := int(it.ival)
			if idx < 0 || idx >= len(d.Cols) {
				return nil, p.errf(it, "key column %d out of range for %s (arity %d)", idx, d.Name, len(d.Cols))
			}
			d.KeyCols = append(d.KeyCols, idx)
			if p.cur().kind == tokComma {
				p.advance()
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen, "keys clause"); err != nil {
			return nil, err
		}
	}
	if p.isKeyword("durable") {
		if event {
			return nil, p.errf(p.cur(), "event table %s may not be durable", d.Name)
		}
		p.advance()
		d.Durable = true
	}
	if _, err := p.expect(tokSemi, "table declaration"); err != nil {
		return nil, err
	}
	return d, nil
}

// parsePeriodicDecl parses "periodic name interval 500;" declaring an
// event source that fires every 500 ms. The runtime auto-declares the
// event table name(Ord: int, Time: int).
func (p *parser) parsePeriodicDecl() (*PeriodicDecl, error) {
	kw := p.advance()
	name, err := p.expect(tokIdent, "periodic declaration")
	if err != nil {
		return nil, err
	}
	if !p.isKeyword("interval") {
		return nil, p.errf(p.cur(), "expected 'interval' in periodic declaration")
	}
	p.advance()
	iv, err := p.expect(tokInt, "periodic interval")
	if err != nil {
		return nil, err
	}
	if iv.ival <= 0 {
		return nil, p.errf(iv, "periodic interval must be positive milliseconds")
	}
	if _, err := p.expect(tokSemi, "periodic declaration"); err != nil {
		return nil, err
	}
	return &PeriodicDecl{Table: name.text, IntervalMS: iv.ival, Line: kw.line, Col: kw.col}, nil
}

// parseWatchDecl parses `watch(table);` or `watch(table, "id");`.
func (p *parser) parseWatchDecl() (*WatchDecl, error) {
	kw := p.advance()
	if _, err := p.expect(tokLParen, "watch declaration"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "watch declaration")
	if err != nil {
		return nil, err
	}
	d := &WatchDecl{Table: name.text, Line: kw.line, Col: kw.col}
	if p.cur().kind == tokComma {
		p.advance()
		modes, err := p.expect(tokString, "watch modes")
		if err != nil {
			return nil, err
		}
		for _, c := range modes.sval {
			if c != 'i' && c != 'd' {
				return nil, p.errf(modes, "watch mode %q not understood (want \"i\", \"d\", or \"id\")", string(c))
			}
		}
		d.Modes = modes.sval
	}
	if _, err := p.expect(tokRParen, "watch declaration"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSemi, "watch declaration"); err != nil {
		return nil, err
	}
	return d, nil
}

// parseRuleOrFact parses `[name] [delete] head :- body;` or `head;`.
func (p *parser) parseRuleOrFact(prog *Program) error {
	start := p.cur()
	name := ""
	del := false
	deferred := false
	// `delete head(...)` / `next head(...)` may appear bare or after a
	// rule label; an identifier immediately followed by another
	// identifier is a label: `r1 head(...)`, `r1 delete head(...)`,
	// `r1 next head(...)`.
	mod := func() bool {
		switch {
		case p.isKeyword("delete") && p.peek().kind == tokIdent:
			p.advance()
			del = true
			return true
		case p.isKeyword("next") && p.peek().kind == tokIdent:
			p.advance()
			deferred = true
			return true
		}
		return false
	}
	if !mod() && p.cur().kind == tokIdent && p.peek().kind == tokIdent {
		name = p.advance().text
		mod()
	}
	if del && deferred {
		return p.errf(start, "a rule may not be both delete and next")
	}
	head, err := p.parseAtom(true)
	if err != nil {
		return err
	}
	switch p.cur().kind {
	case tokSemi:
		p.advance()
		if del || deferred || name != "" {
			return p.errf(start, "a fact may not carry a rule name, delete, or next prefix")
		}
		prog.Facts = append(prog.Facts, &Fact{Atom: head, Line: start.line, Col: start.col})
		return nil
	case tokImplies:
		p.advance()
	default:
		return p.errf(p.cur(), "expected ':-' or ';' after atom %s, found %s", head.Table, p.cur())
	}
	rule := &Rule{Name: name, Delete: del, Deferred: deferred, Head: head, Line: start.line, Col: start.col}
	for {
		elem, err := p.parseBodyElem()
		if err != nil {
			return err
		}
		rule.Body = append(rule.Body, elem)
		if p.cur().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokSemi, "rule"); err != nil {
		return err
	}
	prog.Rules = append(prog.Rules, rule)
	return nil
}

// parseAtom parses `name(term, term, ...)`. Aggregate terms are only
// admitted in heads.
func (p *parser) parseAtom(head bool) (*Atom, error) {
	name, err := p.expect(tokIdent, "atom")
	if err != nil {
		return nil, err
	}
	tbl := name.text
	// Allow namespaced predicates like sys::rule.
	if p.cur().kind == tokDoubleColon {
		p.advance()
		rest, err := p.expect(tokIdent, "namespaced atom")
		if err != nil {
			return nil, err
		}
		tbl = tbl + "::" + rest.text
	}
	a := &Atom{Table: tbl, Line: name.line, Col: name.col}
	if _, err := p.expect(tokLParen, "atom"); err != nil {
		return nil, err
	}
	if p.cur().kind == tokRParen {
		return nil, p.errf(p.cur(), "atom %s must have at least one argument", a.Table)
	}
	for {
		t, err := p.parseTerm(head)
		if err != nil {
			return nil, err
		}
		a.Terms = append(a.Terms, t)
		if p.cur().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen, "atom"); err != nil {
		return nil, err
	}
	return a, nil
}

// parseTerm parses one atom argument: `[@]expr` or `agg<Var>`.
func (p *parser) parseTerm(head bool) (Term, error) {
	var t Term
	if p.cur().kind == tokAt {
		p.advance()
		t.Loc = true
	}
	// Aggregate: count<X>, sum<X>, ... Heads only.
	if p.cur().kind == tokIdent && p.peek().kind == tokLT {
		if agg, ok := aggByName(p.cur().text); ok {
			if !head {
				return t, p.errf(p.cur(), "aggregate %s<> is only allowed in a rule head", p.cur().text)
			}
			p.advance() // agg name
			p.advance() // <
			inner := p.cur()
			var e Expr
			switch inner.kind {
			case tokVar:
				p.advance()
				e = &VarExpr{Name: inner.text}
			case tokWildcard:
				if agg != AggCount {
					return t, p.errf(inner, "only count<_> may aggregate the wildcard")
				}
				p.advance()
				e = &WildcardExpr{}
			default:
				return t, p.errf(inner, "aggregate argument must be a variable, found %s", inner)
			}
			if _, err := p.expect(tokGT, "aggregate"); err != nil {
				return t, err
			}
			t.Agg = agg
			t.Expr = e
			return t, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return t, err
	}
	t.Expr = e
	return t, nil
}

// parseBodyElem parses one conjunct: notin-atom, atom, assignment, or a
// boolean condition expression.
func (p *parser) parseBodyElem() (*BodyElem, error) {
	start := p.cur()
	if p.isKeyword("notin") {
		p.advance()
		a, err := p.parseAtom(false)
		if err != nil {
			return nil, err
		}
		return &BodyElem{Kind: BodyNotin, Atom: a, Line: start.line, Col: start.col}, nil
	}
	// Assignment: Var := expr
	if p.cur().kind == tokVar && p.peek().kind == tokAssign {
		v := p.advance()
		p.advance() // :=
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &BodyElem{Kind: BodyAssign, Assign: v.text, Expr: e, Line: start.line, Col: start.col}, nil
	}
	// Atom: lowercase identifier followed by '(' ... but builtin boolean
	// predicates (e.g. f_isprefix(...)) lex the same way; the compiler
	// reclassifies unknown tables that name builtins as conditions.
	if p.cur().kind == tokIdent && (p.peek().kind == tokLParen || p.peek().kind == tokDoubleColon) {
		save := p.pos
		a, err := p.parseAtom(false)
		if err != nil {
			// Not an atom after all (e.g. a zero-argument call like
			// now() at the head of a condition); reparse as expression.
			p.pos = save
			e, eerr := p.parseExpr()
			if eerr != nil {
				return nil, err // the atom error is the better message
			}
			return &BodyElem{Kind: BodyCond, Cond: e, Line: start.line, Col: start.col}, nil
		}
		// If followed by a comparison operator, the "atom" was really a
		// function call on the left of a condition; reparse as expr.
		switch p.cur().kind {
		case tokEQ, tokNE, tokLT, tokLE, tokGT, tokGE, tokPlus, tokMinus, tokStar, tokSlash, tokPercent:
			p.pos = save
		default:
			return &BodyElem{Kind: BodyAtom, Atom: a, Line: start.line, Col: start.col}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &BodyElem{Kind: BodyCond, Cond: e, Line: start.line, Col: start.col}, nil
}

// --- expression parsing (precedence climbing) ---

func (p *parser) parseExpr() (Expr, error) { return p.parseComparison() }

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().kind {
		case tokEQ:
			op = OpEQ
		case tokNE:
			op = OpNE
		case tokLT:
			op = OpLT
		case tokLE:
			op = OpLE
		case tokGT:
			op = OpGT
		case tokGE:
			op = OpGE
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().kind {
		case tokPlus:
			op = OpAdd
		case tokMinus:
			op = OpSub
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().kind {
		case tokStar:
			op = OpMul
		case tokSlash:
			op = OpDiv
		case tokPercent:
			op = OpMod
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.cur().kind == tokMinus {
		p.advance()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &NegExpr{E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokVar:
		p.advance()
		return &VarExpr{Name: t.text}, nil
	case tokWildcard:
		p.advance()
		return &WildcardExpr{}, nil
	case tokInt:
		p.advance()
		return &ConstExpr{Val: Int(t.ival)}, nil
	case tokFloat:
		p.advance()
		return &ConstExpr{Val: Float(t.fval)}, nil
	case tokString:
		p.advance()
		return &ConstExpr{Val: Str(t.sval)}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "parenthesized expression"); err != nil {
			return nil, err
		}
		return e, nil
	case tokLBracket:
		p.advance()
		le := &ListExpr{}
		if p.cur().kind == tokRBracket {
			p.advance()
			return le, nil
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			le.Elems = append(le.Elems, e)
			if p.cur().kind == tokComma {
				p.advance()
				continue
			}
			break
		}
		if _, err := p.expect(tokRBracket, "list literal"); err != nil {
			return nil, err
		}
		return le, nil
	case tokIdent:
		switch t.text {
		case "true":
			p.advance()
			return &ConstExpr{Val: Bool(true)}, nil
		case "false":
			p.advance()
			return &ConstExpr{Val: Bool(false)}, nil
		case "nil":
			p.advance()
			return &ConstExpr{Val: NilValue}, nil
		}
		if p.peek().kind == tokLParen {
			p.advance() // fn name
			p.advance() // (
			ce := &CallExpr{Fn: t.text}
			if p.cur().kind != tokRParen {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					ce.Args = append(ce.Args, a)
					if p.cur().kind == tokComma {
						p.advance()
						continue
					}
					break
				}
			}
			if _, err := p.expect(tokRParen, "function call"); err != nil {
				return nil, err
			}
			return ce, nil
		}
		return nil, p.errf(t, "unexpected identifier %q in expression (variables are capitalized)", t.text)
	}
	return nil, p.errf(t, "unexpected %s in expression", t)
}
