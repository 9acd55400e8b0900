package analysis

import (
	"fmt"
	"strings"

	"repro/internal/overlog"
)

// SelfLint analyzes a runtime's installed programs and materializes
// the findings into its sys::lint relation, so Overlog rules and the
// /debug status server can query the node's own lint results. The
// diagnostics are also returned for direct rendering (REPL, CLI).
//
// A single node sees only its own side of each protocol, so event
// tables are assumed to be fed and consumed externally; the cross-node
// dataflow lints are the CLI's job, where whole units are visible.
func SelfLint(rt *overlog.Runtime) []Diagnostic {
	ds := Analyze("live", rt.Programs(), Options{AssumeExternalEvents: true})
	tbl := rt.Table("sys::lint")
	if tbl != nil {
		tbl.Clear()
		for _, d := range ds {
			_, _, _ = tbl.Insert(overlog.NewTuple("sys::lint",
				overlog.Str(d.Code), overlog.Str(d.Severity.String()),
				overlog.Str(d.Program), overlog.Str(d.Rule), overlog.Str(d.Subject),
				overlog.Int(int64(d.Line)), overlog.Str(d.Msg)))
		}
	}
	return ds
}

// CALM renders the CALM classification of programs linted as one unit,
// as `boom olg -analyze` and the REPL's .analyze print it: the share
// of monotone rules, and each point-of-order finding, a rule that needs
// coordination for consistency.
func CALM(progs []*overlog.Program) string {
	rules := 0
	for _, p := range progs {
		rules += len(p.Rules)
	}
	// Every point of order counts, the ignored ones too: a rule whose
	// finding is silenced still needs coordination.
	rt := acquire()
	ds, _ := evaluate(rt, "calm", progs, oneGroup(progs), Options{})
	release(rt)
	var poo []Diagnostic
	for _, d := range ds {
		if d.Code == CodePointOfOrder {
			poo = append(poo, d)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "CALM analysis: %d rules, %d monotone\n", rules, rules-len(poo))
	if len(poo) == 0 {
		b.WriteString("program is monotone: eventually consistent without coordination\n")
		return b.String()
	}
	b.WriteString("points of order (coordination needed):\n")
	for _, d := range poo {
		fmt.Fprintf(&b, "  %-12s -> %-16s %s\n", d.Rule, d.Subject, d.Msg)
	}
	return b.String()
}
