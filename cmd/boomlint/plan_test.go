package main

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/overlog"
)

// planExceptions lists, by unit/group/rule, the scan positions that are
// allowed to have no frontier-first delta variant, with the reason. A
// new tuple at such a position is joined in textual order, i.e. by
// scanning whatever the rule names first.
var planExceptions = map[string]string{
	// fqpath(dirname(Path), Par) takes its probe value from a function of
	// request's Path: leading with fqpath would need request probed by
	// dirname of its own column. request is an event table (a row or two
	// per step), so textual order costs nothing.
	"boomfs/master/pc1":             "fqpath(dirname(Path), _): atom argument computed from a later atom's variable",
	"boomfs/master/mv1":             "fqpath(dirname(NewPath), _): atom argument computed from a later atom's variable",
	"boomfs-replicated/replica/pc1": "as boomfs/master/pc1",
	"boomfs-replicated/replica/mv1": "as boomfs/master/mv1",
	"boomfs-membership/master/pc1":  "as boomfs/master/pc1",
	"boomfs-membership/master/mv1":  "as boomfs/master/mv1",
}

// aggregatePlans pins, by program/rule, how every aggregate rule this
// repository ships is evaluated once it has run: one group at a time
// (which tables' changes name the groups they touch), or all groups on
// every input change, and why. An entry that turns from per-group to
// whole-rule is a performance regression the size of boommr's jc1/md1
// (88 % of mr_sim's rule time before they were maintained per group);
// one that turns the other way changed when the rule reads now().
var aggregatePlans = map[string]string{
	"boommr_jt/jc1": "per-group (seeded on J; atoms carrying the group: task)",
	"boommr_jt/md1": "per-group (seeded on J; atoms carrying the group: task)",
	// The second task atom ranks against every pending task: any change
	// to task can move any rank.
	"boommr_jt/pm1": "whole-rule: every input has an atom without the group",
	"boommr_jt/pr1": "whole-rule: every input has an atom without the group",
	// Re-reading now() for every tracker whenever any tracker row changes
	// is what expires a silent tracker from the free ranks.
	"boommr_jt/fm1":           "whole-rule: calls now()",
	"boommr_jt/fc1":           "whole-rule: calls now()",
	"boommr_jt/fr1":           "whole-rule: calls now()",
	"boommr_jt/fc2":           "whole-rule: calls now()",
	"boommr_policy_fair/js1":  "per-group (seeded on J; atoms carrying the group: task)",
	"boommr_policy_fair/far1": "whole-rule: event input fair_key",
	"boommr_policy_late/ar1":  "per-group (seeded on J; atoms carrying the group: attempt_rate)",
	"boommr_policy_late/ao1":  "per-group (seeded on J, T; atoms carrying the group: attempt)",
	"boommr_policy_late/sw1":  "whole-rule: event input spec_cand",

	"paxos/pt1": "per-group (seeded on B; atoms carrying the group: promise_store)",
	// A new ballot in cur_ballot changes which rows count in every slot.
	"paxos/am1": "per-group (seeded on S; atoms carrying the group: promise_acc_store)",
	"paxos/ms1": "whole-rule: event input slot_seen",
	"paxos/mp1": "whole-rule: constant group",
	"paxos/at1": "per-group (seeded on S, B; atoms carrying the group: ack_store)",

	"boomfs_master/ld1": "whole-rule: calls now()",
	"boomfs_master/cr1": "whole-rule: calls now()",
	// Responses leave the node: there is no view to maintain.
	"boomfs_master/ls3": "whole-rule: remote head",
	"boomfs_master/ck1": "whole-rule: remote head",

	// Views of a handful of member rows, re-read when one changes.
	"membership/lv1": "whole-rule: calls localaddr()",
	"membership/lv2": "whole-rule: constant group",
}

// TestEveryAggregateHasItsPlan holds every aggregate rule of every unit
// to aggregatePlans.
func TestEveryAggregateHasItsPlan(t *testing.T) {
	unused := map[string]bool{}
	for k := range aggregatePlans {
		unused[k] = true
	}
	for _, u := range embeddedUnits() {
		for g, srcs := range u.Groups {
			rt := overlog.NewRuntime("n:0")
			for _, src := range srcs {
				if err := rt.InstallSource(src); err != nil {
					t.Fatalf("%s/%s: %v", u.Name, g, err)
				}
			}
			for _, rule := range rt.Rules() {
				plan, err := rt.Explain(rule)
				if err != nil {
					t.Fatal(err)
				}
				var prog string
				if _, err := fmt.Sscanf(plan, "rule "+rule+" (program %s", &prog); err != nil {
					t.Fatalf("%s/%s/%s: unreadable plan: %v\n%s", u.Name, g, rule, err, plan)
				}
				id := strings.TrimSuffix(prog, ")") + "/" + rule
				const marker = "\n  aggregate: "
				at := strings.Index(plan, marker)
				if at < 0 {
					if strings.Contains(plan, ", aggregate") {
						t.Errorf("%s: an aggregate rule whose plan does not say how it is evaluated:\n%s", id, plan)
					}
					continue
				}
				got, _, _ := strings.Cut(plan[at+len(marker):], "\n")
				switch want, ok := aggregatePlans[id]; {
				case !ok:
					t.Errorf("%s is not in aggregatePlans; it is evaluated %s", id, got)
				case got != want:
					t.Errorf("%s is evaluated %s, pinned as %s", id, got, want)
				}
				delete(unused, id)
			}
		}
	}
	for id := range unused {
		t.Errorf("aggregatePlans names %s, which no unit installs", id)
	}
}

// TestEveryScanHasDeltaVariant is the plan pin: in every program this
// repository ships, every scan position of every rule has a
// frontier-first variant, so one new tuple is joined by probing the
// other atoms, not by rescanning the rule's first table. paxos cp1/cp2
// and kvstore a2 had none while a := -derived join key could not be
// reordered, and owned two thirds of the Paxos workloads' rule time.
func TestEveryScanHasDeltaVariant(t *testing.T) {
	unused := map[string]bool{}
	for k := range planExceptions {
		unused[k] = true
	}
	for _, u := range embeddedUnits() {
		groups := make([]string, 0, len(u.Groups))
		for g := range u.Groups {
			groups = append(groups, g)
		}
		sort.Strings(groups)
		for _, g := range groups {
			rt := overlog.NewRuntime("n:0")
			for _, src := range u.Groups[g] {
				if err := rt.InstallSource(src); err != nil {
					t.Fatalf("%s/%s: %v", u.Name, g, err)
				}
			}
			seen := map[string]bool{}
			for _, rule := range rt.Rules() {
				if seen[rule] {
					t.Errorf("%s/%s: two rules named %s: Explain only shows the first", u.Name, g, rule)
				}
				seen[rule] = true
				plan, err := rt.Explain(rule)
				if err != nil {
					t.Fatal(err)
				}
				const marker = "delta variants (frontier-first reorderings): "
				at := strings.Index(plan, marker)
				if at < 0 {
					continue // single-element body or aggregate: nothing to reorder
				}
				var have, want int
				if _, err := fmt.Sscanf(plan[at+len(marker):], "%d of %d scans", &have, &want); err != nil {
					t.Fatalf("%s/%s/%s: unreadable plan: %v\n%s", u.Name, g, rule, err, plan)
				}
				id := u.Name + "/" + g + "/" + rule
				switch _, excepted := planExceptions[id]; {
				case have < want && !excepted:
					t.Errorf("%s: %d of %d scan positions have a delta variant:\n%s", id, have, want, plan)
				case have == want && excepted:
					t.Errorf("%s: listed as an exception but fully planned; drop it from planExceptions", id)
				}
				delete(unused, id)
			}
		}
	}
	for id := range unused {
		t.Errorf("planExceptions names %s, which no unit installs", id)
	}
}

// generatorAlternatives pins, by unit/group/rule and frontier table,
// every shipped delta variant whose run of atoms after the frontier
// full-scans a generator that a later atom of the run could key, with
// the alternative join order it carries (see overlog.planAlternative).
// An evaluation that reaches the generator continues in the alternative
// only while the keying atom's table is the smaller.
var generatorAlternatives = map[string]string{
	"paxos/replica/ad1@new cur_ballot":             ad1Alternative,
	"kvstore/replica/ad1@new cur_ballot":           ad1Alternative,
	"boomfs-replicated/replica/ad1@new cur_ballot": ad1Alternative,
}

// ad1Alternative is paxos' ad1 for a new ballot, which joins every
// adopt_max row (one per slot) with its promises. adopt_max is never the
// larger table: it has one row per slot that promise_acc_store holds a
// promise for, and promise_acc_store one per promising acceptor. So ad1
// keeps today's order and emission order at run time, and the ballot
// index the alternative probes is never built.
const ad1Alternative = "alternative when len(promise_acc_store) < len(adopt_max): " +
	"promise_acc_store via index [0], adopt_max via index [0 1]"

// TestEveryGeneratorHasAlternative is the pin of alternative join
// orders: in every program this repository ships, every delta variant
// that full-scans a generator which a later atom of its run could key —
// read off the rule text here, independently of the planner — carries
// the alternative, and is listed in generatorAlternatives. (evalbench's
// join program spent 86 % of its candidate rows in such a scan.)
func TestEveryGeneratorHasAlternative(t *testing.T) {
	unused := map[string]bool{}
	for k := range generatorAlternatives {
		unused[k] = true
	}
	for _, u := range embeddedUnits() {
		for g, srcs := range u.Groups {
			rt := overlog.NewRuntime("n:0")
			for _, src := range srcs {
				if err := rt.InstallSource(src); err != nil {
					t.Fatalf("%s/%s: %v", u.Name, g, err)
				}
			}
			names := rt.Rules()
			var rules []*overlog.Rule
			for _, prog := range rt.Programs() {
				rules = append(rules, prog.Rules...)
			}
			for i, rule := range rules {
				plan, err := rt.Explain(names[i])
				if err != nil {
					t.Fatal(err)
				}
				const marker = "delta variants (frontier-first reorderings): "
				at := strings.Index(plan, marker)
				if at < 0 {
					continue
				}
				// One block per scan position, in body order: its header, then
				// the variant's plan and alternative lines.
				blocks := strings.Split(plan[at:], "\n    new ")[1:]
				var scans []int
				for pos, be := range rule.Body {
					if be.Kind == overlog.BodyAtom && rt.Table(be.Atom.Table) != nil {
						scans = append(scans, pos)
					}
				}
				if len(blocks) != len(scans) {
					t.Fatalf("%s/%s/%s: %d variant blocks for %d scans:\n%s", u.Name, g, names[i], len(blocks), len(scans), plan)
				}
				for j, pos := range scans {
					id := fmt.Sprintf("%s/%s/%s@new %s", u.Name, g, names[i], rule.Body[pos].Atom.Table)
					_, alt, has := strings.Cut(blocks[j], "\n      alternative when ")
					alt, _, _ = strings.Cut(alt, "\n")
					want, pinned := generatorAlternatives[id]
					switch keyable := keyableGenerator(rt, rule.Body, pos); {
					case keyable && !has:
						t.Errorf("%s full-scans a generator a later atom could key, and has no alternative:\n%s", id, plan)
					case has && !keyable:
						t.Errorf("%s has an alternative, but its text shows no keyable generator:\n%s", id, plan)
					case has && !pinned:
						t.Errorf("%s is not in generatorAlternatives; it carries alternative when %s", id, alt)
					case has && want != "alternative when "+alt:
						t.Errorf("%s carries alternative when %s, pinned as %s", id, alt, want)
					}
					delete(unused, id)
				}
			}
		}
	}
	for id := range unused {
		t.Errorf("generatorAlternatives names %s, which no unit installs", id)
	}
}

// keyableGenerator reads a rule's text as the delta variant led by the
// atom at frontier would run it, the rest in order: in the run of
// declared atoms after the frontier, is there a generator (an atom whose
// terms are all wildcards and variables not bound yet, one at least)
// followed by an atom of plain terms that names both a variable bound
// before the generator and one the generator binds?
func keyableGenerator(rt *overlog.Runtime, body []*overlog.BodyElem, frontier int) bool {
	run := []*overlog.Atom{body[frontier].Atom}
	for pos, be := range body {
		if pos == frontier {
			continue
		}
		if be.Kind != overlog.BodyAtom || rt.Table(be.Atom.Table) == nil {
			break
		}
		run = append(run, be.Atom)
	}
	bound := map[string]bool{}
	vars := func(a *overlog.Atom) (out []string) {
		for _, term := range a.Terms {
			if v, ok := term.Expr.(*overlog.VarExpr); ok {
				out = append(out, v.Name)
			}
		}
		return out
	}
	for _, v := range vars(run[0]) {
		bound[v] = true
	}
	for g, gen := range run[1:] {
		binds := map[string]bool{}
		isGen := true
		for _, term := range gen.Terms {
			switch e := term.Expr.(type) {
			case *overlog.WildcardExpr:
			case *overlog.VarExpr:
				isGen = isGen && !bound[e.Name]
				binds[e.Name] = true
			default:
				isGen = false
			}
		}
		if isGen && len(binds) > 0 {
			for _, q := range run[g+2:] {
				plain, early, fromGen := true, false, false
				for _, term := range q.Terms {
					switch e := term.Expr.(type) {
					case *overlog.WildcardExpr, *overlog.ConstExpr:
					case *overlog.VarExpr:
						early = early || bound[e.Name]
						fromGen = fromGen || binds[e.Name]
					default:
						plain = false
					}
				}
				if plain && early && fromGen {
					return true
				}
			}
		}
		for _, v := range vars(gen) {
			bound[v] = true
		}
	}
	return false
}

// dispatchExceptions lists, by unit/group/rule and body position, the
// atoms that carry a string or bool constant which a new tuple at that
// position is nevertheless not dispatched on, with the reason. Such a
// rule is entered for every new tuple of the table, and its first
// comparison turns the wrong ones away.
var dispatchExceptions = map[string]string{
	// A trigger list has one dispatch column, the one most of its entries
	// have a constant on. In stratum 0 of the LATE policy's jobtracker
	// that is task.State ("pending"/"running" in a4, d4, rj1, tf1, ...);
	// these two rules name a task's Type instead. task rows change a few
	// times per task, not per heartbeat, so two extra entries cost little.
	"boommr-late/jobtracker/arr1@1": "task.Type = \"map\": task tuples are dispatched on task.State",
	"boommr-late/jobtracker/arr2@1": "as arr1",
}

// TestEveryLeadingConstantIsDispatched is the dispatch pin: in every
// program this repository ships, a rule that names a string or bool
// constant in a body atom is reached by a new tuple of that atom's
// table only when the tuple carries the constant — `Explain` prints
// `dispatch: <table>.<col> = <const>` for that scan position. boomfs'
// master offered every request to all 21 of its
// request(@M, Id, Src, "<op>", ...) rules before a trigger list was
// keyed by constant, 30 % of its rule time for rules that fired nothing.
// (Aggregates are evaluated whole and have no scan positions to pin;
// one whose body opens on an event table is held to the same line.)
func TestEveryLeadingConstantIsDispatched(t *testing.T) {
	unused := map[string]bool{}
	for k := range dispatchExceptions {
		unused[k] = true
	}
	dispatched := 0
	for _, u := range embeddedUnits() {
		groups := make([]string, 0, len(u.Groups))
		for g := range u.Groups {
			groups = append(groups, g)
		}
		sort.Strings(groups)
		for _, g := range groups {
			rt := overlog.NewRuntime("n:0")
			for _, src := range u.Groups[g] {
				if err := rt.InstallSource(src); err != nil {
					t.Fatalf("%s/%s: %v", u.Name, g, err)
				}
			}
			names := rt.Rules()
			var rules []*overlog.Rule
			for _, prog := range rt.Programs() {
				rules = append(rules, prog.Rules...)
			}
			if len(rules) != len(names) {
				t.Fatalf("%s/%s: %d rules parsed, %d installed", u.Name, g, len(rules), len(names))
			}
			for i, rule := range rules {
				plan, err := rt.Explain(names[i])
				if err != nil {
					t.Fatal(err)
				}
				whole := strings.Contains(plan, "(evaluated whole)")
				for pos, be := range rule.Body {
					if be.Kind != overlog.BodyAtom || !hasHashableConst(be.Atom) {
						continue
					}
					id := fmt.Sprintf("%s/%s/%s@%d", u.Name, g, names[i], pos)
					line := fmt.Sprintf("\n    new %s at %d: dispatch: ", be.Atom.Table, pos)
					if whole {
						if pos != 0 || !rt.Table(be.Atom.Table).Decl().Event {
							continue
						}
						line = "\n    dispatch: "
					}
					at := strings.Index(plan, line)
					if at < 0 {
						t.Errorf("%s: %s has a constant and the plan has no dispatch line for it:\n%s", id, be.Atom, plan)
						continue
					}
					got, _, _ := strings.Cut(plan[at+len(line):], "\n")
					_, excepted := dispatchExceptions[id]
					switch none := strings.HasPrefix(got, "none"); {
					case none && !excepted:
						t.Errorf("%s: %s is not dispatched: %s", id, be.Atom, got)
					case !none && excepted:
						t.Errorf("%s: listed as an exception but dispatched on %s; drop it from dispatchExceptions", id, got)
					case !none:
						dispatched++
					}
					delete(unused, id)
				}
			}
		}
	}
	for id := range unused {
		t.Errorf("dispatchExceptions names %s, which no unit installs", id)
	}
	t.Logf("%d scan positions dispatched", dispatched)
	if dispatched < 200 {
		t.Errorf("%d scan positions dispatched across all units, want the 200+ there were when this was pinned", dispatched)
	}
}

// hasHashableConst reports whether a body atom names a string or bool
// constant: the kinds a tuple is dispatched on whatever the column's
// declared type.
func hasHashableConst(a *overlog.Atom) bool {
	for _, term := range a.Terms {
		if c, ok := term.Expr.(*overlog.ConstExpr); ok {
			switch c.Val.Kind() {
			case overlog.KindString, overlog.KindAddr, overlog.KindBool:
				return true
			}
		}
	}
	return false
}
