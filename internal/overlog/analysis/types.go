package analysis

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/overlog"
)

// The type pass unifies, per rule, the kinds a variable is used at:
// every atom position constrains its variable to the declared column
// type, assignments constrain their target to the inferred expression
// kind, and comparisons check their operands. Kinds are coarsened to
// compatibility classes first — the runtime freely coerces int<->float
// and string<->addr, so only cross-class unification is a bug.
//
//	type-conflict  a variable (or comparison) mixes incompatible classes
//	const-type     a literal sits in a column of an incompatible type
//	cond-type      a body condition cannot evaluate to bool
//	redundant-keys keys(...) names every column (identical to default)

// class is a kind-compatibility class.
type class uint8

const (
	clUnknown class = iota
	clNumeric       // int, float
	clStringy       // string, addr
	clBool
	clList
	clAny // declared `any`: compatible with everything
)

func (c class) String() string {
	switch c {
	case clNumeric:
		return "numeric"
	case clStringy:
		return "string"
	case clBool:
		return "bool"
	case clList:
		return "list"
	case clAny:
		return "any"
	}
	return "unknown"
}

func classOfKind(k overlog.Kind) class {
	switch k {
	case overlog.KindInt, overlog.KindFloat:
		return clNumeric
	case overlog.KindString, overlog.KindAddr:
		return clStringy
	case overlog.KindBool:
		return clBool
	case overlog.KindList:
		return clList
	case overlog.KindAny:
		return clAny
	}
	return clUnknown
}

// compatible reports whether two classes can hold the same value.
func compatible(a, b class) bool {
	return a == clUnknown || b == clUnknown || a == clAny || b == clAny || a == b
}

func typeLints(unit string, m *overlog.Model) []Diagnostic {
	var ds []Diagnostic
	for _, mr := range m.Rules {
		tc := &typeChecker{unit: unit, m: m, mr: mr, vars: map[string]varType{}}
		for _, be := range mr.Rule.Body {
			switch be.Kind {
			case overlog.BodyAtom, overlog.BodyNotin:
				tc.checkAtom(be.Atom, false)
			case overlog.BodyAssign:
				cl := tc.exprClass(be.Expr, be.Line, be.Col)
				tc.constrain(be.Assign, cl, site{}, be.Line, be.Col)
			case overlog.BodyCond:
				cl := tc.exprClass(be.Cond, be.Line, be.Col)
				if cl != clUnknown && cl != clAny && cl != clBool {
					tc.report(CodeCondType, "", be.Line, be.Col, "condition evaluates to %s, not bool", cl)
				}
			}
		}
		tc.checkAtom(mr.Rule.Head, true)
		ds = append(ds, tc.ds...)
	}

	// redundant-keys is declaration-level. Iterate declarations in
	// sorted order so findings append deterministically.
	tables := slices.Clone(m.Tables)
	slices.Sort(tables)
	for _, t := range tables {
		d := m.Decls[t]
		if d.Event || len(d.KeyCols) == 0 || strings.HasPrefix(t, "sys::") {
			continue
		}
		distinct := map[int]bool{}
		for _, k := range d.KeyCols {
			distinct[k] = true
		}
		if len(distinct) == d.Arity() {
			ds = append(ds, finish(Diagnostic{
				Code: CodeRedundantKeys, Unit: unit, Subject: t, Program: m.DeclProg[t], Line: d.Line, Col: d.Col,
				Msg: fmt.Sprintf("keys(...) on %s names every column, which is identical to the default set semantics", t),
			}))
		}
	}
	return ds
}

// varType remembers a variable's inferred class and the evidence.
type varType struct {
	cl    class
	where site
}

// site is where a class came from: a column of a declared table, or,
// with no table, an assignment. It is rendered only for a finding.
type site struct {
	decl *overlog.TableDecl
	col  int
}

func (s site) String() string {
	if s.decl == nil {
		return "assignment"
	}
	c := s.decl.Cols[s.col]
	return fmt.Sprintf("%s column %d (%s %s)", s.decl.Name, s.col, c.Name, c.Type)
}

type typeChecker struct {
	unit string
	m    *overlog.Model
	mr   overlog.ModelRule
	vars map[string]varType
	ds   []Diagnostic
}

// report adds a finding anchored at the rule being checked.
func (tc *typeChecker) report(code, subject string, line, col int, format string, args ...interface{}) {
	tc.ds = append(tc.ds, finish(Diagnostic{
		Code: code, Unit: tc.unit, Program: tc.mr.Prog, Rule: tc.mr.Name, Subject: subject,
		Line: line, Col: col, Msg: fmt.Sprintf(format, args...),
	}))
}

// constrain unifies a variable with a class, reporting a conflict if it
// was already pinned to an incompatible one.
func (tc *typeChecker) constrain(name string, cl class, where site, line, col int) {
	if cl == clUnknown || cl == clAny {
		return
	}
	prev, ok := tc.vars[name]
	if !ok || prev.cl == clUnknown || prev.cl == clAny {
		tc.vars[name] = varType{cl: cl, where: where}
		return
	}
	if prev.cl != cl {
		tc.report(CodeTypeConflict, name, line, col,
			"variable %s is %s at %s but %s at %s", name, prev.cl, prev.where, cl, where)
	}
}

// checkAtom constrains every term against the declared column types.
func (tc *typeChecker) checkAtom(a *overlog.Atom, head bool) {
	decl := tc.m.Decls[a.Table]
	if decl == nil || decl.Arity() != len(a.Terms) {
		return // undeclared or mis-arity: the dataflow pass / compiler reports it
	}
	for i, term := range a.Terms {
		colCl := classOfKind(decl.Cols[i].Type)
		where := site{decl, i}
		if head && term.Agg != overlog.AggNone {
			aggCl := clUnknown
			switch term.Agg {
			case overlog.AggCount, overlog.AggSum, overlog.AggAvg:
				aggCl = clNumeric
			case overlog.AggSet:
				aggCl = clList
			case overlog.AggMin, overlog.AggMax:
				// min/max return the aggregated variable's own kind:
				// unify the variable with the column instead.
				if v, isVar := term.Expr.(*overlog.VarExpr); isVar {
					tc.constrain(v.Name, colCl, where, a.Line, a.Col)
				}
				continue
			}
			if !compatible(aggCl, colCl) {
				tc.report(CodeTypeConflict, a.Table, a.Line, a.Col,
					"%s<> produces %s but %s is %s", term.Agg, aggCl, where, colCl)
			}
			continue
		}
		switch e := term.Expr.(type) {
		case *overlog.VarExpr:
			tc.constrain(e.Name, colCl, where, a.Line, a.Col)
		case *overlog.WildcardExpr:
			// no constraint
		case *overlog.ConstExpr:
			constCl := classOfKind(e.Val.Kind())
			if e.Val.Kind() != overlog.KindNil && !compatible(constCl, colCl) {
				tc.report(CodeConstType, a.Table, a.Line, a.Col,
					"literal %s is %s but %s is %s", e.Val, constCl, where, colCl)
			}
		default:
			cl := tc.exprClass(term.Expr, a.Line, a.Col)
			if !compatible(cl, colCl) {
				tc.report(CodeTypeConflict, a.Table, a.Line, a.Col,
					"expression %s is %s but %s is %s", term.Expr, cl, where, colCl)
			}
		}
	}
}

// exprClass infers an expression's class, checking comparisons and
// arithmetic along the way.
func (tc *typeChecker) exprClass(e overlog.Expr, line, col int) class {
	switch x := e.(type) {
	case *overlog.VarExpr:
		return tc.vars[x.Name].cl
	case *overlog.WildcardExpr:
		return clUnknown
	case *overlog.ConstExpr:
		return classOfKind(x.Val.Kind())
	case *overlog.ListExpr:
		for _, el := range x.Elems {
			tc.exprClass(el, line, col)
		}
		return clList
	case *overlog.NegExpr:
		tc.wantNumeric(x.E, "unary minus", line, col)
		return clNumeric
	case *overlog.CallExpr:
		for _, a := range x.Args {
			tc.exprClass(a, line, col)
		}
		if b, ok := overlog.LookupBuiltin(x.Fn); ok {
			return classOfKind(b.Ret)
		}
		return clUnknown
	case *overlog.BinExpr:
		l := tc.exprClass(x.L, line, col)
		r := tc.exprClass(x.R, line, col)
		switch x.Op {
		case overlog.OpEQ, overlog.OpNE, overlog.OpLT, overlog.OpLE, overlog.OpGT, overlog.OpGE:
			if !compatible(l, r) {
				tc.report(CodeTypeConflict, "", line, col,
					"comparison %s mixes %s and %s; cross-kind comparisons never match", x, l, r)
			}
			return clBool
		case overlog.OpAdd:
			// '+' adds numerics; with a stringy LEFT operand it
			// concatenates. numeric + string is a runtime error.
			if (l == clNumeric && r == clStringy) ||
				l == clBool || r == clBool || l == clList || r == clList {
				tc.report(CodeTypeConflict, "", line, col,
					"operator + applied to %s and %s", l, r)
			}
			if l == clStringy {
				return clStringy
			}
			if l == clNumeric && r == clNumeric {
				return clNumeric
			}
			return clUnknown
		default: // -, *, /, %
			tc.wantNumeric(x.L, "operator "+x.Op.String(), line, col)
			tc.wantNumeric(x.R, "operator "+x.Op.String(), line, col)
			return clNumeric
		}
	}
	return clUnknown
}

func (tc *typeChecker) wantNumeric(e overlog.Expr, what string, line, col int) {
	cl := tc.exprClass(e, line, col)
	if cl != clUnknown && cl != clAny && cl != clNumeric {
		tc.report(CodeTypeConflict, "", line, col,
			"%s needs a numeric operand, got %s (%s)", what, cl, e)
	}
}
