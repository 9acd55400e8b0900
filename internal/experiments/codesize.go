package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/boomfs"
	"repro/internal/boommr"
	"repro/internal/kvstore"
	"repro/internal/membership"
	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/rsm"
)

// OlgStat summarizes one embedded Overlog program.
type OlgStat struct {
	Name   string
	Rules  int
	Tables int
	Lines  int
}

// CodeSizeResult is the T1 table: the compactness claim measured on our
// artifacts, next to the numbers the paper reported for theirs.
type CodeSizeResult struct {
	Olg []OlgStat
	// GoLines holds the non-test, non-blank, non-comment line count of
	// each imperative twin T1 compares against, keyed by its path.
	GoLines map[string]int
}

// t1Row is one line of the T1 comparison: a declarative component (the
// sum of its programs), its imperative twin in this repository if it
// has one, and what the paper reported for its own version.
type t1Row struct {
	Component string
	Programs  []string
	Twin      string // Go file, relative to the module root; "" if none
	Paper     string
}

// t1Rows are the components T1 compares.
var t1Rows = []t1Row{
	{"FS master", []string{"boomfs master"}, "internal/hadoopfs/namenode.go",
		"HDFS ~21,700 Java lines → BOOM-FS 85 rules / 469 Overlog lines (+1,431 Java)"},
	{"MR scheduling", []string{"boommr jobtracker", "boommr fifo"}, "internal/mrbase/jobtracker.go",
		"Hadoop JobTracker (thousands of Java lines) → BOOM-MR 82 rules / 396 lines"},
	{"LATE policy delta", []string{"boommr late"}, "", `"a handful of rules"`},
	{"Paxos", []string{"paxos"}, "", "~50 rules"},
}

// olgSources enumerates every embedded rule set (the declarative side
// of the system inventory).
func olgSources() map[string]string {
	return map[string]string{
		"boomfs master":        boomfs.MasterRules,
		"boomfs datanode":      boomfs.DataNodeRules,
		"boomfs client":        boomfs.ClientRules,
		"boomfs gateway":       boomfs.GatewayRules,
		"boomfs gc":            boomfs.GCRules,
		"boomfs protocol":      boomfs.ProtocolDecls,
		"boommr jobtracker":    boommr.JobTrackerRules,
		"boommr fifo":          boommr.PolicyFIFO,
		"boommr late":          boommr.PolicyLATE,
		"boommr fair":          boommr.PolicyFAIR,
		"boommr tracker":       boommr.TrackerRules,
		"boommr protocol":      boommr.MRProtocolDecls,
		"paxos":                paxos.Rules,
		"membership":           membership.Rules,
		"boomfs feed master":   boomfs.MasterFeed,
		"boomfs feed datanode": boomfs.DataNodeFeed,
		"kvstore":              kvstore.Rules,
		"rsm":                  rsm.Rules,
	}
}

// neutralize replaces config placeholders so sources parse.
func neutralize(src string) string {
	for _, k := range []string{"REPL", "DNTIMEOUT", "FDTICK", "HBMS", "SCHEDMS",
		"TTTTL", "SLOWFRAC", "SPECMINMS", "MAXSPEC", "TTHB", "PXTICK",
		"ELTIMEOUT", "STRIDE", "SYNCMS", "GCTICK", "GCGRACE", "TICK", "TIMEOUT",
		"HALF", "SUSPECT"} {
		src = strings.ReplaceAll(src, "{{"+k+"}}", "1")
	}
	return src
}

// countLines counts the lines that are neither blank nor a // comment,
// the same rule for Overlog and Go so T1 compares like with like.
func countLines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		n++
	}
	return n
}

// RunCodeSize measures our artifacts: rules/lines per Overlog program
// plus the lines of each imperative twin (found by walking up to
// go.mod).
func RunCodeSize() (*CodeSizeResult, error) {
	res := &CodeSizeResult{GoLines: map[string]int{}}
	for name, src := range olgSources() {
		stat := OlgStat{Name: name, Lines: countLines(src)}
		if prog, err := overlog.Parse(neutralize(src)); err == nil {
			stat.Rules = len(prog.Rules)
			stat.Tables = len(prog.Tables)
		}
		res.Olg = append(res.Olg, stat)
	}
	sort.Slice(res.Olg, func(i, j int) bool { return res.Olg[i].Name < res.Olg[j].Name })

	root, err := ModuleRoot()
	if err != nil {
		return nil, err
	}
	for _, row := range t1Rows {
		if row.Twin == "" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(root, row.Twin))
		if err != nil {
			return nil, err
		}
		res.GoLines[row.Twin] = countLines(string(data))
	}
	return res, nil
}

// ModuleRoot returns the directory holding go.mod, searching upward
// from the working directory.
func ModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("go.mod not found above working directory")
		}
		dir = parent
	}
}

// component sums the rules and lines of a row's programs.
func (r *CodeSizeResult) component(row t1Row) (rules, lines int) {
	for _, s := range r.Olg {
		for _, name := range row.Programs {
			if s.Name == name {
				rules += s.Rules
				lines += s.Lines
			}
		}
	}
	return rules, lines
}

// ratio is a row's imperative twin lines over its Overlog lines (0
// when the row has no twin).
func (r *CodeSizeResult) ratio(row t1Row) float64 {
	_, lines := r.component(row)
	if row.Twin == "" || lines == 0 {
		return 0
	}
	return float64(r.GoLines[row.Twin]) / float64(lines)
}

// Report renders T1: the comparison, then every program.
func (r *CodeSizeResult) Report() string {
	var b strings.Builder
	b.WriteString("| artifact | paper (EuroSys 2010) | this reproduction | imperative twin | ratio |\n")
	b.WriteString("|---|---|---|---|---:|\n")
	for _, row := range t1Rows {
		rules, lines := r.component(row)
		twin, ratio := "—", "—"
		if row.Twin != "" {
			twin = fmt.Sprintf("%d Go lines (`%s`)", r.GoLines[row.Twin], row.Twin)
			ratio = fmt.Sprintf("%.1f×", r.ratio(row))
		}
		fmt.Fprintf(&b, "| %s | %s | %d rules / %d lines (`%s`) | %s | %s |\n",
			row.Component, row.Paper, rules, lines, strings.Join(row.Programs, "` + `"), twin, ratio)
	}
	b.WriteString("\n| program | rules | tables | lines |\n|---|---:|---:|---:|\n")
	for _, s := range r.Olg {
		fmt.Fprintf(&b, "| %s | %d | %d | %d |\n", s.Name, s.Rules, s.Tables, s.Lines)
	}
	return b.String()
}
