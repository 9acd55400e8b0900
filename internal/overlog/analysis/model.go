package analysis

import (
	"fmt"
	"maps"
	"strings"

	"repro/internal/overlog"
)

// ruleInfo is one rule plus its provenance within the unit.
type ruleInfo struct {
	prog string
	name string // label, or "<prog>#<n>" when unlabeled
	rule *overlog.Rule
}

// model is the unit's merged catalog: each table's first declaration
// (periodic event tables auto-declared, as the runtime does) and every
// rule under the one name all passes report it by.
type model struct {
	unit     string
	decls    map[string]*overlog.TableDecl
	declProg map[string]string // declaring program, for anchoring
	tables   []string          // decls' keys, in declaration order
	rules    []*ruleInfo
}

func progName(p *overlog.Program) string {
	if p.Name == "" {
		return "anon"
	}
	return p.Name
}

func buildModel(unit string, progs []*overlog.Program) *model {
	m := &model{unit: unit, decls: map[string]*overlog.TableDecl{}, declProg: map[string]string{}}
	for _, p := range progs {
		pname := progName(p)
		declare := func(d *overlog.TableDecl) {
			if _, dup := m.decls[d.Name]; !dup {
				m.decls[d.Name], m.declProg[d.Name] = d, pname
				m.tables = append(m.tables, d.Name)
			}
		}
		for _, d := range p.Tables {
			declare(d)
		}
		for _, pd := range p.Periodics {
			declare(&overlog.TableDecl{
				Name: pd.Table, Event: true,
				Cols: []overlog.ColDecl{
					{Name: "Ord", Type: overlog.KindInt},
					{Name: "Time", Type: overlog.KindInt},
				},
				Line: pd.Line, Col: pd.Col,
			})
		}
		for i, r := range p.Rules {
			name := r.Name
			if name == "" {
				name = fmt.Sprintf("%s#%d", pname, i+1)
			}
			m.rules = append(m.rules, &ruleInfo{prog: pname, name: name, rule: r})
		}
	}
	return m
}

// facts renders the unit as the relations analysis.olg reads, and
// returns the lint codes to drop. groups lists each co-installed
// group's programs, as indexes into progs in install order: labels
// must be unique within a group.
func (m *model) facts(progs []*overlog.Program, groups [][]int, opts Options) ([]overlog.Tuple, map[string]bool) {
	var fs factSet
	add := fs.add
	for t := range opts.Feeds {
		add("feed", str(t))
	}
	for t := range opts.Exports {
		add("export", str(t))
	}
	ignore := maps.Clone(opts.Ignore)
	if ignore == nil {
		ignore = map[string]bool{}
	}
	for _, t := range m.tables {
		d := m.decls[t]
		distinct := map[int]bool{}
		for _, k := range d.KeyCols {
			distinct[k] = true
		}
		setSem := len(distinct) == 0 || len(distinct) == d.Arity()
		add("decl", str(t), str(m.declProg[t]), flag(d.Event), flag(keyed(d)), flag(setSem), num(d.Line), num(d.Col))
		if d.Event && opts.AssumeExternalEvents {
			add("feed", str(t))
			add("export", str(t))
		}
	}
	first := make([]int, len(progs)) // each program's first rule
	r := 0
	for p, prog := range progs {
		pname := progName(prog)
		first[p] = r
		for _, d := range prog.Tables {
			if keyed(d) {
				add("keyed", str(d.Name), num(p))
			}
		}
		for _, pd := range prog.Periodics {
			add("timer", str(pd.Table))
		}
		for _, w := range prog.Watches {
			add("watched", str(w.Table))
		}
		for _, f := range prog.Facts {
			add("fact", str(f.Atom.Table))
		}
		for _, pr := range prog.Pragmas {
			switch {
			case pr.Key == "feed" || pr.Key == "export":
				for _, t := range pr.Args {
					add(pr.Key, str(t))
				}
			case pr.Key == "ordered" && len(pr.Args) > 0:
				add("ordered", str(pr.Args[0]), str(pname))
			case pr.Key == "ignore":
				for _, c := range pr.Args {
					ignore[c] = true
				}
			}
		}
		for _, rule := range prog.Rules {
			m.ruleFacts(&fs, r, p, rule)
			r++
		}
	}
	for g, ps := range groups {
		ord := 0
		for _, p := range ps {
			for i, rule := range progs[p].Rules {
				if rule.Name != "" {
					add("label", num(g), num(ord), str(rule.Name), num(first[p]+i))
					ord++
				}
			}
		}
	}
	return fs.ts, ignore
}

// factSet accumulates the tuples of the relations analysis.olg reads.
type factSet struct{ ts []overlog.Tuple }

func (fs *factSet) add(table string, vals ...overlog.Value) {
	fs.ts = append(fs.ts, overlog.NewTuple(table, vals...))
}

// atom adds a rule's atom at pos (0 for the head).
func (fs *factSet) atom(r, pos int, a *overlog.Atom, kind string) {
	fs.add("atom", num(r), num(pos), str(a.Table), str(kind), num(a.Line), num(a.Col))
}

// ruleFacts adds rule r (the unit's r-th rule, in program p): its row,
// its atoms, and each variable's first occurrence in evaluation order.
func (m *model) ruleFacts(fs *factSet, r, p int, rule *overlog.Rule) {
	ri := m.rules[r]
	mode := "insert"
	switch {
	case rule.Delete:
		mode = "delete"
	case rule.Head.LocIndex() >= 0:
		mode = "remote"
	}
	fs.add("rule", num(r), num(p), str(ri.prog), str(ri.name), str(rule.Head.Table), str(mode),
		flag(rule.HasAggregate()), num(rule.Line), num(rule.Col))
	// A variable's first occurrence, completed by whether it has another.
	first := map[string][]overlog.Value{}
	var order []string
	occ := func(e overlog.Expr, kind string, line, col int) {
		for _, v := range overlog.FreeVars(e) {
			if f := first[v]; f != nil {
				f[4] = flag(true)
				continue
			}
			first[v] = []overlog.Value{num(r), str(v), str(strings.ToLower(v)), str(kind), flag(false), num(line), num(col)}
			order = append(order, v)
		}
	}
	terms := func(a *overlog.Atom) {
		for _, t := range a.Terms {
			kind := "use"
			if t.Loc {
				kind = "loc"
			}
			occ(t.Expr, kind, a.Line, a.Col)
		}
	}
	for pos, be := range rule.Body {
		switch be.Kind {
		case overlog.BodyAtom, overlog.BodyNotin:
			kind := "atom"
			switch {
			case be.Kind == overlog.BodyNotin:
				kind = "notin"
			case m.call(be.Atom.Table):
				kind = "call"
			}
			fs.atom(r, pos+1, be.Atom, kind)
			terms(be.Atom)
		case overlog.BodyCond:
			occ(be.Cond, "use", be.Line, be.Col)
		case overlog.BodyAssign:
			occ(be.Expr, "use", be.Line, be.Col)
			occ(&overlog.VarExpr{Name: be.Assign}, "assign", be.Line, be.Col)
		}
	}
	kind := "head"
	if m.call(rule.Head.Table) {
		kind = "call"
	}
	fs.atom(r, 0, rule.Head, kind)
	terms(rule.Head)
	for _, v := range order {
		fs.add("occ", first[v]...)
	}
}

var (
	str  = overlog.Str
	flag = overlog.Bool
)

func num(n int) overlog.Value { return overlog.Int(int64(n)) }

// keyed reports whether d's key is a proper subset of its columns: an
// insert can replace a row.
func keyed(d *overlog.TableDecl) bool {
	return !d.Event && len(d.KeyCols) > 0 && len(d.KeyCols) < len(d.Cols)
}

// call reports whether an atom naming t is a condition rather than a
// table: no program of the unit declares t, and a builtin has its
// name. So the compiler reads it.
func (m *model) call(t string) bool {
	_, fn := overlog.LookupBuiltin(t)
	return fn && m.decls[t] == nil
}

// diag constructs a finding anchored at a rule.
func (m *model) diag(code string, ri *ruleInfo, subject string, line, col int, format string, args ...interface{}) Diagnostic {
	return finish(Diagnostic{
		Code: code, Unit: m.unit, Program: ri.prog, Rule: ri.name, Subject: subject,
		Line: line, Col: col, Msg: fmt.Sprintf(format, args...),
	})
}

// declDiag constructs a finding anchored at a table declaration.
func (m *model) declDiag(code, table string, format string, args ...interface{}) Diagnostic {
	d := m.decls[table]
	return finish(Diagnostic{
		Code: code, Unit: m.unit, Subject: table, Program: m.declProg[table],
		Line: d.Line, Col: d.Col, Msg: fmt.Sprintf(format, args...),
	})
}
