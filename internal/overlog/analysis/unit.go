package analysis

import "sort"

// Unit is a named set of Overlog sources linted as one whole program.
// Groups partition the sources by node role: every group's programs
// are co-installed on one runtime in production, so the compiler's
// semantic checks run per group, while the lint passes see the union
// (a table written on the master and read on a datanode resolves).
type Unit struct {
	Name   string
	Groups map[string][]string
}

// AllSources flattens the groups into a deduplicated source list in
// stable (group-name, position) order. Shared sources — the protocol
// declarations every role installs — appear once.
func (u Unit) AllSources() []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range sortedKeys(u.Groups) {
		for _, src := range u.Groups[n] {
			if seen[src] {
				continue
			}
			seen[src] = true
			out = append(out, src)
		}
	}
	return out
}

// sortedKeys returns the group names in order.
func sortedKeys(groups map[string][]string) []string {
	names := make([]string, 0, len(groups))
	for n := range groups {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run lints a unit: the semantic install check per group, and every
// static pass over the merged sources, with labels checked for
// collisions within each group (rules on different roles never share
// a runtime). It takes its analysis runtime first and holds it through
// parsing and the install check, so that a caller linting unit after
// unit gets the same one back from the pool.
func Run(u Unit, opts Options) []Diagnostic {
	rt := acquire()
	progs, ds, results := parseAll(u.Name, u.AllSources())
	ds = append(ds, installCheck(u.Name, u.Groups, results)...)
	var groups [][]int
	for _, n := range sortedKeys(u.Groups) {
		var g []int
		for _, src := range u.Groups[n] {
			if r := results[src]; r.err == nil {
				g = append(g, r.at)
			}
		}
		groups = append(groups, g)
	}
	ds = append(ds, analyze(rt, u.Name, progs, groups, opts)...)
	release(rt)
	Sort(ds)
	return ds
}
