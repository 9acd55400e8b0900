package overlog

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token classes.
type tokenKind uint8

const (
	tokEOF      tokenKind = iota
	tokIdent              // lowercase-initial identifier: table names, keywords, functions
	tokVar                // uppercase-initial identifier: rule variables
	tokWildcard           // _
	tokInt
	tokFloat
	tokString
	tokLParen   // (
	tokRParen   // )
	tokLBracket // [
	tokRBracket // ]
	tokComma    // ,
	tokSemi     // ;
	tokColon    // :
	tokImplies  // :-
	tokAssign   // :=
	tokAt       // @
	tokLT       // <
	tokGT       // >
	tokLE       // <=
	tokGE       // >=
	tokEQ       // ==
	tokNE       // !=
	tokPlus     // +
	tokMinus    // -
	tokStar     // *
	tokSlash    // /
	tokPercent  // %
	tokDoubleColon
	tokEquals // = (only after `param name: type`)
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokWildcard:
		return "'_'"
	case tokInt:
		return "integer"
	case tokFloat:
		return "float"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokComma:
		return "','"
	case tokSemi:
		return "';'"
	case tokColon:
		return "':'"
	case tokImplies:
		return "':-'"
	case tokAssign:
		return "':='"
	case tokAt:
		return "'@'"
	case tokLT:
		return "'<'"
	case tokGT:
		return "'>'"
	case tokLE:
		return "'<='"
	case tokGE:
		return "'>='"
	case tokEQ:
		return "'=='"
	case tokNE:
		return "'!='"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokPercent:
		return "'%'"
	case tokDoubleColon:
		return "'::'"
	case tokEquals:
		return "'='"
	}
	return "token"
}

// token is one lexical token with source position.
type token struct {
	kind tokenKind
	text string  // identifier / variable spelling
	ival int64   // integer literal
	fval float64 // float literal
	sval string  // string literal (unquoted)
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokIdent, tokVar:
		return fmt.Sprintf("%q", t.text)
	case tokInt:
		return strconv.FormatInt(t.ival, 10)
	case tokFloat:
		return strconv.FormatFloat(t.fval, 'g', -1, 64)
	case tokString:
		return strconv.Quote(t.sval)
	}
	return t.kind.String()
}

// SyntaxError reports a lexing or parsing failure with position info.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("overlog: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lexer scans Overlog source text into tokens. Line comments of the
// form `//lint:key args...` are collected as pragmas for the analyzer
// rather than discarded.
type lexer struct {
	src     string
	pos     int
	line    int
	col     int
	pragmas []Pragma
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errf(format string, args ...interface{}) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekByteAt(1) == '/':
			line := l.line
			start := l.pos
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
			l.notePragma(l.src[start:l.pos], line)
		case c == '/' && l.peekByteAt(1) == '*':
			startLine, startCol := l.line, l.col
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peekByte() == '*' && l.peekByteAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &SyntaxError{Line: startLine, Col: startCol, Msg: "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

// notePragma records `//lint:key args...` comments. comment includes
// the leading "//".
func (l *lexer) notePragma(comment string, line int) {
	rest, ok := strings.CutPrefix(comment, "//lint:")
	if !ok {
		return
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return
	}
	l.pragmas = append(l.pragmas, Pragma{Key: fields[0], Args: fields[1:], Line: line})
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || ('0' <= c && c <= '9')
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	tok := token{line: l.line, col: l.col}
	if l.pos >= len(l.src) {
		tok.kind = tokEOF
		return tok, nil
	}
	c := l.peekByte()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peekByte()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		if text == "_" {
			tok.kind = tokWildcard
			return tok, nil
		}
		tok.text = text
		if unicode.IsUpper(rune(text[0])) {
			tok.kind = tokVar
		} else {
			tok.kind = tokIdent
		}
		return tok, nil
	case c >= '0' && c <= '9':
		return l.lexNumber(tok)
	case c == '"':
		return l.lexString(tok)
	}
	l.advance()
	switch c {
	case '(':
		tok.kind = tokLParen
	case ')':
		tok.kind = tokRParen
	case '[':
		tok.kind = tokLBracket
	case ']':
		tok.kind = tokRBracket
	case ',':
		tok.kind = tokComma
	case ';':
		tok.kind = tokSemi
	case '@':
		tok.kind = tokAt
	case '+':
		tok.kind = tokPlus
	case '-':
		tok.kind = tokMinus
	case '*':
		tok.kind = tokStar
	case '/':
		tok.kind = tokSlash
	case '%':
		tok.kind = tokPercent
	case ':':
		switch l.peekByte() {
		case '-':
			l.advance()
			tok.kind = tokImplies
		case '=':
			l.advance()
			tok.kind = tokAssign
		case ':':
			l.advance()
			tok.kind = tokDoubleColon
		default:
			tok.kind = tokColon
		}
	case '<':
		if l.peekByte() == '=' {
			l.advance()
			tok.kind = tokLE
		} else {
			tok.kind = tokLT
		}
	case '>':
		if l.peekByte() == '=' {
			l.advance()
			tok.kind = tokGE
		} else {
			tok.kind = tokGT
		}
	case '=':
		if l.peekByte() == '=' {
			l.advance()
			tok.kind = tokEQ
		} else {
			tok.kind = tokEquals
		}
	case '!':
		if l.peekByte() == '=' {
			l.advance()
			tok.kind = tokNE
		} else {
			return tok, &SyntaxError{Line: tok.line, Col: tok.col, Msg: "unexpected '!'; use '!=' or notin"}
		}
	default:
		return tok, &SyntaxError{Line: tok.line, Col: tok.col, Msg: fmt.Sprintf("unexpected character %q", string(c))}
	}
	return tok, nil
}

func (l *lexer) lexNumber(tok token) (token, error) {
	start := l.pos
	isFloat := false
	for l.pos < len(l.src) {
		c := l.peekByte()
		if c >= '0' && c <= '9' {
			l.advance()
			continue
		}
		// A '.' is part of the number only when followed by a digit, so
		// ranges like "1..2" (unsupported) fail loudly rather than parse.
		if c == '.' && !isFloat && l.peekByteAt(1) >= '0' && l.peekByteAt(1) <= '9' {
			isFloat = true
			l.advance()
			continue
		}
		if (c == 'e' || c == 'E') && l.pos > start {
			nxt := l.peekByteAt(1)
			if nxt >= '0' && nxt <= '9' || ((nxt == '+' || nxt == '-') && l.peekByteAt(2) >= '0' && l.peekByteAt(2) <= '9') {
				isFloat = true
				l.advance() // e
				l.advance() // sign or digit
				continue
			}
		}
		break
	}
	text := l.src[start:l.pos]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return tok, &SyntaxError{Line: tok.line, Col: tok.col, Msg: "malformed float literal " + text}
		}
		tok.kind = tokFloat
		tok.fval = f
		return tok, nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return tok, &SyntaxError{Line: tok.line, Col: tok.col, Msg: "malformed integer literal " + text}
	}
	tok.kind = tokInt
	tok.ival = i
	return tok, nil
}

func (l *lexer) lexString(tok token) (token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			return tok, &SyntaxError{Line: tok.line, Col: tok.col, Msg: "unterminated string literal"}
		}
		c := l.advance()
		switch c {
		case '"':
			tok.kind = tokString
			tok.sval = b.String()
			return tok, nil
		case '\\':
			if l.pos >= len(l.src) {
				return tok, &SyntaxError{Line: tok.line, Col: tok.col, Msg: "unterminated string escape"}
			}
			e := l.advance()
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			default:
				return tok, &SyntaxError{Line: tok.line, Col: tok.col, Msg: fmt.Sprintf("unknown string escape \\%c", e)}
			}
		case '\n':
			return tok, &SyntaxError{Line: tok.line, Col: tok.col, Msg: "newline in string literal"}
		default:
			b.WriteByte(c)
		}
	}
}

// paramDefaultNext reports whether toks end in `param name: type`, the
// one place a lone '=' is a token.
func paramDefaultNext(toks []token) bool {
	n := len(toks)
	return n >= 4 && toks[n-4].kind == tokIdent && toks[n-4].text == "param" &&
		toks[n-3].kind == tokIdent && toks[n-2].kind == tokColon && toks[n-1].kind == tokIdent
}

// lexAll scans the whole source, returning the token stream and any
// lint pragmas found in comments.
func lexAll(src string) ([]token, []Pragma, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, nil, err
		}
		if t.kind == tokEquals && !paramDefaultNext(toks) {
			return nil, nil, &SyntaxError{Line: t.line, Col: t.col, Msg: "unexpected '='; use '==' for comparison or ':=' for assignment"}
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, l.pragmas, nil
		}
	}
}
