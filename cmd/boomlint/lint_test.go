package main

import "testing"

// TestEachFindingReportedOnce: a program co-installed in several units
// is reported once per (program, rule, code, subject), with the units
// it appears in, so the count measures rules, not co-installations.
func TestEachFindingReportedOnce(t *testing.T) {
	seen := map[[4]string]bool{}
	shared := 0
	for _, d := range lint(embeddedUnits()) {
		k := [4]string{d.Program, d.Rule, d.Code, d.Subject}
		if seen[k] {
			t.Errorf("reported twice: %s", d)
		}
		seen[k] = true
		if len(d.Units) == 0 || d.Unit != "" {
			t.Errorf("%s: units %v, unit %q", d, d.Units, d.Unit)
		}
		if len(d.Units) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no finding lists more than one unit")
	}
}
