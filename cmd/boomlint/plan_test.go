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
