package overlog

import (
	"fmt"
	"slices"
	"strings"
)

// Program is a parsed Overlog program: a name plus an ordered list of
// declarations (params, tables, events, periodics, watches) and rules.
type Program struct {
	Name      string
	Params    []*ParamDecl
	Tables    []*TableDecl
	Periodics []*PeriodicDecl
	Watches   []*WatchDecl
	Rules     []*Rule
	Facts     []*Fact
	Pragmas   []Pragma
}

// Pragma is a `//lint:key args...` directive comment. Pragmas declare
// facts about the program the rules cannot express — typically which
// tables cross the Go/Overlog boundary — and are consumed by static
// analysis (internal/overlog/analysis), not by the runtime.
type Pragma struct {
	Key  string   // "export", "feed", "ignore", ...
	Args []string // whitespace-separated operands
	Line int
}

// TableDecl declares a relation: its columns, key columns, whether it
// is persistent (table) or a one-timestep event relation (event), and
// whether it survives a crash (durable: Snapshot writes it).
type TableDecl struct {
	Name    string
	Cols    []ColDecl
	KeyCols []int // indices into Cols; empty means all columns (set semantics)
	Event   bool
	Durable bool
	Line    int
	Col     int
}

// ColDecl is one declared column.
type ColDecl struct {
	Name string
	Type Kind
	Max  bool // the column only grows: writes merge into the stored row by max
}

// Arity returns the number of columns.
func (d *TableDecl) Arity() int { return len(d.Cols) }

// MaxCol returns the index of the table's max column, or -1.
func (d *TableDecl) MaxCol() int {
	return slices.IndexFunc(d.Cols, func(c ColDecl) bool { return c.Max })
}

// checkMax reports why d's max column is malformed, or "".
func (d *TableDecl) checkMax() string {
	i := d.MaxCol()
	if i < 0 {
		return ""
	}
	ok := !d.Event && len(d.KeyCols) > 0 && d.Cols[i].Type == KindInt
	for j, c := range d.Cols {
		ok = ok && slices.Contains(d.KeyCols, j) != (j == i) && (j == i || !c.Max)
	}
	if ok {
		return ""
	}
	return fmt.Sprintf("max column %s of %s must be an int and the only non-key column of a keyed table", d.Cols[i].Name, d.Name)
}

// String renders the declaration in source syntax.
func (d *TableDecl) String() string {
	kw := "table"
	if d.Event {
		kw = "event"
	}
	cols := make([]string, len(d.Cols))
	for i, c := range d.Cols {
		cols[i] = fmt.Sprintf("%s: %s", c.Name, c.Type)
		if c.Max {
			cols[i] += " max"
		}
	}
	s := fmt.Sprintf("%s %s(%s)", kw, d.Name, strings.Join(cols, ", "))
	if len(d.KeyCols) > 0 && !d.Event {
		keys := make([]string, len(d.KeyCols))
		for i, k := range d.KeyCols {
			keys[i] = fmt.Sprintf("%d", k)
		}
		s += fmt.Sprintf(" keys(%s)", strings.Join(keys, ", "))
	}
	if d.Durable {
		s += " durable"
	}
	return s + ";"
}

// ParamDecl declares a named constant of one program: `param name:
// type = default;`. The parser replaces every later reference to it (a
// bare lowercase identifier in an expression or as a periodic's
// interval) with a ConstExpr holding Value, so the compiler never sees
// the name.
type ParamDecl struct {
	Name  string
	Type  Kind
	Value Value // the default, or the install-time override
	Line  int
	Col   int
}

// PeriodicDecl declares a periodic event source: the runtime injects a
// tuple (Name, ord) into the named event table every IntervalMS.
type PeriodicDecl struct {
	Table      string
	IntervalMS int64
	Line       int
	Col        int
}

// WatchDecl asks the runtime to emit trace callbacks for a table.
// Modes: "i" (inserts), "d" (deletes); empty means both.
type WatchDecl struct {
	Table string
	Modes string
	Line  int
	Col   int
}

// AggKind enumerates head aggregates.
type AggKind uint8

// Supported aggregate functions.
const (
	AggNone AggKind = iota
	AggCount
	AggSum
	AggMin
	AggMax
	AggAvg
	AggSet // setof<X>: sorted list of the distinct values of X
)

func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggSet:
		return "setof"
	}
	return "none"
}

func aggByName(name string) (AggKind, bool) {
	switch name {
	case "setof":
		return AggSet, true
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	case "avg":
		return AggAvg, true
	}
	return AggNone, false
}

// Term is one argument position of an atom: an expression, optionally
// an aggregate over a variable (head atoms only), optionally carrying a
// location specifier '@'.
type Term struct {
	Expr Expr
	Agg  AggKind // non-AggNone only in rule heads
	Loc  bool    // true when written with '@'
}

func (t Term) String() string {
	s := ""
	if t.Loc {
		s = "@"
	}
	if t.Agg != AggNone {
		return s + fmt.Sprintf("%s<%s>", t.Agg, t.Expr)
	}
	return s + t.Expr.String()
}

// Atom is a predicate applied to terms: head or positive/negated body.
type Atom struct {
	Table string
	Terms []Term
	Line  int
	Col   int
}

func (a *Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return a.Table + "(" + strings.Join(parts, ", ") + ")"
}

// LocIndex returns the index of the term carrying the location
// specifier, or -1.
func (a *Atom) LocIndex() int {
	for i, t := range a.Terms {
		if t.Loc {
			return i
		}
	}
	return -1
}

// BodyElemKind tags elements of a rule body.
type BodyElemKind uint8

// Body element kinds.
const (
	BodyAtom   BodyElemKind = iota // positive predicate
	BodyNotin                      // negated predicate
	BodyCond                       // boolean condition over bound vars
	BodyAssign                     // Var := Expr
)

// BodyElem is one conjunct of a rule body.
type BodyElem struct {
	Kind   BodyElemKind
	Atom   *Atom  // BodyAtom, BodyNotin
	Cond   Expr   // BodyCond
	Assign string // BodyAssign target variable
	Expr   Expr   // BodyAssign source expression
	Line   int
	Col    int
}

func (b *BodyElem) String() string {
	switch b.Kind {
	case BodyAtom:
		return b.Atom.String()
	case BodyNotin:
		return "notin " + b.Atom.String()
	case BodyCond:
		return b.Cond.String()
	case BodyAssign:
		return b.Assign + " := " + b.Expr.String()
	}
	return "?"
}

// Rule is one deductive rule. Delete rules remove their derived head
// tuples from storage at the end of the timestep instead of inserting.
// Deferred rules ("next head(...) :- body") apply their head tuples at
// the beginning of the next timestep, as in Dedalus/JOL deferred
// updates; this is the sanctioned way to update a counter or other
// state read in the same rule without creating an unstratifiable loop.
type Rule struct {
	Name     string // optional label
	Delete   bool
	Deferred bool
	Head     *Atom
	Body     []*BodyElem
	Line     int
	Col      int
}

// HasAggregate reports whether the head carries an aggregate term.
func (r *Rule) HasAggregate() bool {
	for _, t := range r.Head.Terms {
		if t.Agg != AggNone {
			return true
		}
	}
	return false
}

func (r *Rule) String() string {
	var b strings.Builder
	if r.Name != "" {
		b.WriteString(r.Name)
		b.WriteString(" ")
	}
	if r.Delete {
		b.WriteString("delete ")
	}
	if r.Deferred {
		b.WriteString("next ")
	}
	b.WriteString(r.Head.String())
	b.WriteString(" :- ")
	parts := make([]string, len(r.Body))
	for i, e := range r.Body {
		parts[i] = e.String()
	}
	b.WriteString(strings.Join(parts, ", "))
	b.WriteString(";")
	return b.String()
}

// Fact is a ground head with no body; loaded into storage at install.
type Fact struct {
	Atom *Atom
	Line int
	Col  int
}

func (f *Fact) String() string { return f.Atom.String() + ";" }

// --- Expressions ---

// Expr is an expression tree node.
type Expr interface {
	String() string
	// freeVars appends the variables referenced by the expression.
	freeVars(vs []string) []string
}

// FreeVars returns the variables referenced by an expression, in
// occurrence order with duplicates preserved (callers that need a set
// can dedup). Exported for analysis tooling.
func FreeVars(e Expr) []string { return e.freeVars(nil) }

// VarExpr references a rule variable.
type VarExpr struct{ Name string }

func (e *VarExpr) String() string                { return e.Name }
func (e *VarExpr) freeVars(vs []string) []string { return append(vs, e.Name) }

// WildcardExpr is the anonymous variable `_` (atom positions only).
type WildcardExpr struct{}

func (e *WildcardExpr) String() string                { return "_" }
func (e *WildcardExpr) freeVars(vs []string) []string { return vs }

// ConstExpr is a literal value.
type ConstExpr struct{ Val Value }

func (e *ConstExpr) String() string                { return e.Val.String() }
func (e *ConstExpr) freeVars(vs []string) []string { return vs }

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEQ
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpEQ:
		return "=="
	case OpNE:
		return "!="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	}
	return "?"
}

// BinExpr applies a binary operator.
type BinExpr struct {
	Op   BinOp
	L, R Expr
}

func (e *BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}
func (e *BinExpr) freeVars(vs []string) []string {
	return e.R.freeVars(e.L.freeVars(vs))
}

// NegExpr is unary minus.
type NegExpr struct{ E Expr }

func (e *NegExpr) String() string                { return "-" + e.E.String() }
func (e *NegExpr) freeVars(vs []string) []string { return e.E.freeVars(vs) }

// CallExpr invokes a builtin function.
type CallExpr struct {
	Fn   string
	Args []Expr
}

func (e *CallExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Fn + "(" + strings.Join(parts, ", ") + ")"
}
func (e *CallExpr) freeVars(vs []string) []string {
	for _, a := range e.Args {
		vs = a.freeVars(vs)
	}
	return vs
}

// ListExpr constructs a list value.
type ListExpr struct{ Elems []Expr }

func (e *ListExpr) String() string {
	parts := make([]string, len(e.Elems))
	for i, a := range e.Elems {
		parts[i] = a.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
func (e *ListExpr) freeVars(vs []string) []string {
	for _, a := range e.Elems {
		vs = a.freeVars(vs)
	}
	return vs
}
