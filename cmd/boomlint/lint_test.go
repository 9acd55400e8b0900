package main

import (
	"flag"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/overlog"
	"repro/internal/overlog/analysis"
)

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

// TestFindingsIgnoreRuleOrder: a finding is a function of the program,
// not of the order its rules are written in. Reversing the rules of
// every program of every unit leaves each finding's code, program,
// rule, subject and message as they were.
func TestFindingsIgnoreRuleOrder(t *testing.T) {
	key := func(ds []analysis.Diagnostic) []string {
		out := make([]string, len(ds))
		for i, d := range ds {
			out[i] = strings.Join([]string{d.Code, d.Program, d.Rule, d.Subject, d.Msg}, "|")
		}
		sort.Strings(out)
		return out
	}
	changed, total := 0, 0
	for _, u := range embeddedUnits() {
		var fwd, rev []*overlog.Program
		for _, src := range u.AllSources() {
			p, err := overlog.Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", u.Name, err)
			}
			q, _ := overlog.Parse(src)
			slices.Reverse(q.Rules)
			fwd, rev = append(fwd, p), append(rev, q)
		}
		want := key(analysis.Analyze(u.Name, fwd, analysis.Options{}))
		got := key(analysis.Analyze(u.Name, rev, analysis.Options{}))
		total += len(want)
		for _, k := range want {
			if _, found := slices.BinarySearch(got, k); !found {
				changed++
				t.Errorf("%s: reversing rule order loses %s", u.Name, k)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d findings, %d with rules reversed", u.Name, len(want), len(got))
		}
	}
	if changed > 0 {
		t.Errorf("%d of %d findings depend on rule order", changed, total)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/findings.txt from this run")

// TestFindingsPinned pins every finding boomlint reports over the
// embedded units, one sorted line each: severity, code, program, rule,
// subject and the units reporting it ("-" for an empty field), without
// positions or messages. A rule or analysis change that adds, drops or
// moves a finding shows here; `go test ./cmd/boomlint -run
// FindingsPinned -update` rewrites the file.
func TestFindingsPinned(t *testing.T) {
	dash := func(s string) string {
		if s == "" {
			return "-"
		}
		return s
	}
	var lines []string
	for _, d := range lint(embeddedUnits()) {
		lines = append(lines, strings.Join([]string{d.Sev, d.Code, dash(d.Program), dash(d.Rule),
			dash(d.Subject), strings.Join(d.Units, ",")}, " "))
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	const file = "testdata/findings.txt"
	if *update {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
		for _, l := range lines {
			if !slices.Contains(wantLines, l) {
				t.Errorf("new finding: %s", l)
			}
		}
		for _, l := range wantLines {
			if !slices.Contains(lines, l) {
				t.Errorf("finding gone: %s", l)
			}
		}
	}
}
