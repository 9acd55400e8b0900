package overlog

import (
	"fmt"
	"sort"
)

// Binding is one query answer: variable name -> value.
type Binding map[string]Value

// Query evaluates an ad-hoc conjunctive query against the runtime's
// current stored state, without installing anything. The source is a
// rule body, e.g.:
//
//	rt.Query(`file(F, P, N, true), fqpath(Path, F)`)
//
// It returns one Binding per satisfying assignment of the query's
// variables (deduplicated), sorted deterministically. Queries see the
// state as of the last completed step; they never modify it.
func (r *Runtime) Query(body string) ([]Binding, error) {
	// Parse by wrapping the body in a synthetic rule whose head exposes
	// every variable; the head is resolved against a synthetic decl.
	src := "q__result(Q__) :- " + body + ";"
	prog, err := Parse("table q__result(Q__: int) keys(0);\n" + src)
	if err != nil {
		return nil, err
	}
	if len(prog.Rules) != 1 {
		return nil, fmt.Errorf("overlog: query must be a single rule body")
	}
	rule := prog.Rules[0]
	// Collect variables in order of appearance.
	var varNames []string
	seen := map[string]bool{}
	for _, be := range rule.Body {
		var vs []string
		switch be.Kind {
		case BodyAtom, BodyNotin:
			r.Table(be.Atom.Table) // a catalog relation renders on first read
			for _, term := range be.Atom.Terms {
				vs = term.Expr.freeVars(vs)
			}
		case BodyCond:
			vs = be.Cond.freeVars(vs)
		case BodyAssign:
			vs = append(be.Expr.freeVars(vs), be.Assign)
		}
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				varNames = append(varNames, v)
			}
		}
	}

	// Recompile with the real head: a fake tuple carrying the variables.
	// We reuse the rule compiler against the live catalog but divert the
	// head through a synthetic decl of matching arity.
	qdecl := &TableDecl{Name: "q__result", Event: true}
	for _, v := range varNames {
		qdecl.Cols = append(qdecl.Cols, ColDecl{Name: v, Type: KindAny})
	}
	if len(varNames) == 0 {
		qdecl.Cols = []ColDecl{{Name: "Hit", Type: KindBool}}
	}
	saved, hadSaved := r.cat.decls["q__result"]
	r.cat.decls["q__result"] = qdecl
	defer func() {
		if hadSaved {
			r.cat.decls["q__result"] = saved
		} else {
			delete(r.cat.decls, "q__result")
		}
	}()

	head := &Atom{Table: "q__result", Line: rule.Line}
	if len(varNames) == 0 {
		head.Terms = []Term{{Expr: &ConstExpr{Val: Bool(true)}}}
	} else {
		for _, v := range varNames {
			head.Terms = append(head.Terms, Term{Expr: &VarExpr{Name: v}})
		}
	}
	qrule := &Rule{Name: "q__", Head: head, Body: rule.Body, Line: rule.Line}
	rc := &ruleCompiler{cat: r.cat, rule: qrule, prog: "query", slots: map[string]int{}}
	cr, err := rc.compileRule(0)
	if err != nil {
		return nil, err
	}

	var out []Binding
	dedup := map[string]bool{}
	env := make([]Value, cr.nslots)
	err = r.execOps(cr, 0, -1, nil, env, func(env []Value) error {
		b := Binding{}
		vals := make([]Value, 0, len(varNames))
		for i, ce := range cr.head.exprs {
			v, err := ce.eval(env, r)
			if err != nil {
				return err
			}
			if len(varNames) > 0 {
				b[varNames[i]] = v
			}
			vals = append(vals, v)
		}
		key := Tuple{Vals: vals}.Identity()
		if !dedup[key] {
			dedup[key] = true
			out = append(out, b)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortBindings(out, varNames)
	return out, nil
}

// QueryOne is Query returning just the first binding (or false).
func (r *Runtime) QueryOne(body string) (Binding, bool, error) {
	bs, err := r.Query(body)
	if err != nil {
		return nil, false, err
	}
	if len(bs) == 0 {
		return nil, false, nil
	}
	return bs[0], true, nil
}

func sortBindings(bs []Binding, varNames []string) {
	sort.Slice(bs, func(i, j int) bool {
		for _, v := range varNames {
			if c := bs[i][v].Compare(bs[j][v]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}
