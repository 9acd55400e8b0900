package overlog

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// The program as relations: a Model renders programs installed in
// order as the rows of the catalog relations below (DESIGN.md section
// 19 describes each column). A runtime serves its own under sys::
// names, rendered on first read; boomlint's analysis.olg is a query
// over the same relations for the unit it lints. R numbers rules in
// install order from 0 and P programs; a rule is named by its label, or
// <prog>_r<R>, as RuleProfiles and sys::fire name it.
const schema = `
table rule(R: int, P: int, Prog: string, Name: string, Head: string, Mode: string, Agg: bool, Line: int, Col: int) keys(0);
table atom(R: int, Pos: int, T: string, Kind: string, Line: int, Col: int) keys(0, 1);
table occ(R: int, V: string, Fold: string, Kind: string, Again: bool, Line: int, Col: int) keys(0, 1);
table decl(T: string, Prog: string, Event: bool, Keyed: bool, Set: bool, Arity: int, Durable: bool, Line: int, Col: int) keys(0);
table keyed(T: string, P: int);
table feed(T: string);
table export(T: string);
table ordered(T: string, Prog: string);
table ignore(Code: string);
table timer(T: string);
table watched(T: string);
table fact(T: string);
`

// Schema returns the declarations of the catalog relations, under
// their plain names.
var Schema = sync.OnceValue(func() []*TableDecl {
	p, err := Parse(schema)
	if err != nil {
		panic("catalog schema: " + err.Error())
	}
	return p.Tables
})

// CatalogRelations lists the sys:: relations that describe the
// installed program rather than hold its state: the rendered schema,
// and sys::fire. A runtime fills them only when something reads them.
func CatalogRelations() []string {
	out := []string{"sys::fire"}
	for _, d := range Schema() {
		out = append(out, "sys::"+d.Name)
	}
	return out
}

// rendered reports whether name is a relation the runtime renders from
// its programs.
func rendered(name string) bool {
	return isSysTable(name) && slices.ContainsFunc(Schema(), func(d *TableDecl) bool { return d.Name == name[5:] })
}

// ruleName is the name a rule goes by: its label, or <prog>_r<i> for
// the i-th rule installed.
func ruleName(prog string, r *Rule, i int) string {
	if r.Name != "" {
		return r.Name
	}
	return fmt.Sprintf("%s_r%d", prog, i)
}

// periodicDecl is the event table a periodic declares.
func periodicDecl(pd *PeriodicDecl) *TableDecl {
	return &TableDecl{Name: pd.Table, Event: true, Cols: []ColDecl{
		{Name: "Ord", Type: KindInt},
		{Name: "Time", Type: KindInt},
	}, Line: pd.Line, Col: pd.Col}
}

// ModelRule is one rule of a Model, under the name it goes by.
type ModelRule struct {
	Prog, Name string
	Rule       *Rule
}

// Model is a list of programs installed in order, read as one catalog:
// each table's first declaration, the program declaring it, and every
// rule.
type Model struct {
	progs    []*Program
	Decls    map[string]*TableDecl
	DeclProg map[string]string
	Tables   []string // Decls' keys, in declaration order
	Rules    []ModelRule
}

// NewModel reads programs installed in order as one catalog.
func NewModel(progs []*Program) *Model {
	m := &Model{progs: progs, Decls: map[string]*TableDecl{}, DeclProg: map[string]string{}}
	for _, p := range progs {
		pname := progName(p)
		declare := func(d *TableDecl) {
			if _, dup := m.Decls[d.Name]; !dup {
				m.Decls[d.Name], m.DeclProg[d.Name] = d, pname
				m.Tables = append(m.Tables, d.Name)
			}
		}
		for _, d := range p.Tables {
			declare(d)
		}
		for _, pd := range p.Periodics {
			declare(periodicDecl(pd))
		}
		for _, r := range p.Rules {
			m.Rules = append(m.Rules, ModelRule{pname, ruleName(pname, r, len(m.Rules)), r})
		}
	}
	return m
}

// Rows renders the model as the catalog relations' rows, each table
// name prefixed with prefix.
func (m *Model) Rows(prefix string) []Tuple {
	var ts []Tuple
	add := func(t string, vals ...Value) { ts = append(ts, NewTuple(prefix+t, vals...)) }
	for _, t := range m.Tables {
		d := m.Decls[t]
		distinct := map[int]bool{}
		for _, k := range d.KeyCols {
			distinct[k] = true
		}
		set := len(distinct) == 0 || len(distinct) == d.Arity()
		add("decl", Str(t), Str(m.DeclProg[t]), Bool(d.Event), Bool(keyReplacing(d)), Bool(set),
			num(d.Arity()), Bool(d.Durable), num(d.Line), num(d.Col))
	}
	r := 0
	for p, prog := range m.progs {
		for _, d := range prog.Tables {
			if keyReplacing(d) {
				add("keyed", Str(d.Name), num(p))
			}
		}
		for _, pd := range prog.Periodics {
			add("timer", Str(pd.Table))
		}
		for _, w := range prog.Watches {
			add("watched", Str(w.Table))
		}
		for _, f := range prog.Facts {
			add("fact", Str(f.Atom.Table))
		}
		for _, pr := range prog.Pragmas {
			switch {
			case pr.Key == "feed" || pr.Key == "export" || pr.Key == "ignore":
				for _, a := range pr.Args {
					add(pr.Key, Str(a))
				}
			case pr.Key == "ordered" && len(pr.Args) > 0:
				add("ordered", Str(pr.Args[0]), Str(progName(prog)))
			}
		}
		for range prog.Rules {
			m.ruleRows(add, r, p)
			r++
		}
	}
	return ts
}

// ruleRows renders rule r (in program p): its row, its atoms, and each
// variable's first occurrence in evaluation order.
func (m *Model) ruleRows(add func(string, ...Value), r, p int) {
	mr, rule := m.Rules[r], m.Rules[r].Rule
	mode := "insert"
	switch {
	case rule.Delete:
		mode = "delete"
	case rule.Head.LocIndex() >= 0:
		mode = "remote"
	}
	add("rule", num(r), num(p), Str(mr.Prog), Str(mr.Name), Str(rule.Head.Table), Str(mode),
		Bool(rule.HasAggregate()), num(rule.Line), num(rule.Col))
	// A variable's first occurrence, completed by whether it has another.
	first := map[string][]Value{}
	var order []string
	occ := func(e Expr, kind string, line, col int) {
		for _, v := range e.freeVars(nil) {
			if f := first[v]; f != nil {
				f[4] = Bool(true)
				continue
			}
			first[v] = []Value{num(r), Str(v), Str(strings.ToLower(v)), Str(kind), Bool(false), num(line), num(col)}
			order = append(order, v)
		}
	}
	atom := func(pos int, a *Atom, kind string) {
		if kind != "notin" && m.call(a.Table) {
			kind = "call"
		}
		add("atom", num(r), num(pos), Str(a.Table), Str(kind), num(a.Line), num(a.Col))
		for _, t := range a.Terms {
			k := "use"
			if t.Loc {
				k = "loc"
			}
			occ(t.Expr, k, a.Line, a.Col)
		}
	}
	for pos, be := range rule.Body {
		switch be.Kind {
		case BodyAtom:
			atom(pos+1, be.Atom, "atom")
		case BodyNotin:
			atom(pos+1, be.Atom, "notin")
		case BodyCond:
			occ(be.Cond, "use", be.Line, be.Col)
		case BodyAssign:
			occ(be.Expr, "use", be.Line, be.Col)
			occ(&VarExpr{Name: be.Assign}, "assign", be.Line, be.Col)
		}
	}
	atom(0, rule.Head, "head")
	for _, v := range order {
		add("occ", first[v]...)
	}
}

func num(n int) Value { return Int(int64(n)) }

// keyReplacing reports whether d's key is a proper subset of its
// columns and d has no max column (which merges writes in any order):
// an insert can replace a row.
func keyReplacing(d *TableDecl) bool {
	return !d.Event && len(d.KeyCols) > 0 && len(d.KeyCols) < len(d.Cols) && d.MaxCol() < 0
}

// call reports whether an atom naming t is a condition rather than a
// table: no program declares t, and a builtin has its name. So the
// compiler reads it.
func (m *Model) call(t string) bool {
	_, fn := LookupBuiltin(t)
	return fn && m.Decls[t] == nil
}
