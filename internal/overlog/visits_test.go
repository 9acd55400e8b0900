package overlog_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/boomfs"
	"repro/internal/overlog"
)

// TestRequestVisitsOnlyItsOpRules is the visit-count guard of constant
// dispatch, on the program it was built for: one
// request(..., "exists", ...) arriving at an installed boomfs master
// enters the rules that name "exists" in their request atom and the
// rules that name no operation there (pc1, mk2 and mk3 take Op as a
// variable) — not the other sixteen request rules, each of which used
// to be entered to turn the tuple away at its first comparison.
func TestRequestVisitsOnlyItsOpRules(t *testing.T) {
	var srcs []string
	for _, u := range boomfs.LintUnits() {
		if u.Name == "boomfs" {
			srcs = u.Groups["master"]
		}
	}
	rt := overlog.NewRuntime("m:0")
	for _, src := range srcs {
		if err := rt.InstallSource(src); err != nil {
			t.Fatal(err)
		}
	}
	request := func(now int64, id, op, path string) {
		t.Helper()
		req := overlog.NewTuple("request", overlog.Addr("m:0"), overlog.Str(id), overlog.Addr("c:0"),
			overlog.Str(op), overlog.Str(path), overlog.Str(""))
		if _, err := rt.Step(now, []overlog.Tuple{req}); err != nil {
			t.Fatal(err)
		}
	}
	// The first steps run every rule that has never run, and put a
	// directory in the catalog.
	request(1, "r1", "mkdir", "/d")
	request(2, "r2", "ls", "/")
	evals := func() map[string]int64 {
		out := map[string]int64{}
		for _, p := range rt.RuleProfiles() {
			out[p.Rule] += p.Evals
		}
		return out
	}
	// opOf reads a rule's text: the Op its request atom names ("" when
	// it takes a variable), and whether it has one.
	opOf := map[string]string{}
	for _, prog := range rt.Programs() {
		for _, rule := range prog.Rules {
			for _, be := range rule.Body {
				if be.Kind == overlog.BodyAtom && be.Atom.Table == "request" {
					op := ""
					if c, ok := be.Atom.Terms[3].Expr.(*overlog.ConstExpr); ok {
						op = c.Val.AsString()
					}
					opOf[rule.Name] = op
				}
			}
		}
	}
	if len(opOf) < 20 {
		t.Fatalf("%d rules read request, want the 20+ the master has", len(opOf))
	}
	before := evals()
	request(3, "r3", "exists", "/d")
	var entered []string
	for rule, n := range evals() {
		if n == before[rule] {
			continue
		}
		entered = append(entered, rule)
		if op, ok := opOf[rule]; !ok || (op != "" && op != "exists") {
			t.Errorf("an exists request entered %s (request Op %q, reads request: %v)", rule, op, ok)
		}
	}
	sort.Strings(entered)
	if got := strings.Join(entered, " "); got != "ex1 ex2 mk2 mk3 pc1" {
		t.Errorf("an exists request entered [%s], want the two exists rules and the three that take Op as a variable", got)
	}
}
