package programs

import (
	"io/fs"
	"os"
	"slices"
	"testing"

	"repro/internal/boomfs"
	"repro/internal/boommr"
	"repro/internal/chaos"
	"repro/internal/membership"
	"repro/internal/overlog"
	"repro/internal/paxos"
)

// TestRegistryDrift guards the registry against the three ways it can
// drift from what ships: a file no lint unit installs (or a unit
// source that is no file), a file `boom rules` prints that does not
// parse, and a Go default that disagrees with the default its file
// declares.
func TestRegistryDrift(t *testing.T) {
	registered := map[string]string{}
	for _, p := range All() {
		registered[p.Src] = p.Name
		// `boom rules NAME` prints Src verbatim.
		if _, err := overlog.Parse(p.Src); err != nil {
			t.Errorf("%s does not parse: %v", p.Name, err)
		}
	}
	linted := map[string]bool{}
	for _, u := range LintUnits() {
		for _, src := range u.AllSources() {
			linted[src] = true
			prog, err := overlog.Parse(src)
			if err != nil {
				t.Errorf("unit %s: %v", u.Name, err)
				continue
			}
			// Seed facts are generated per deployment; anything that
			// declares or derives is a program and must be a file.
			program := len(prog.Tables)+len(prog.Rules)+len(prog.Periodics)+len(prog.Params) > 0
			if _, ok := registered[src]; program && !ok {
				t.Errorf("unit %s installs program %q, which is no registry file", u.Name, prog.Name)
			}
		}
	}
	for src, name := range registered {
		if !linted[src] {
			t.Errorf("registry file %s is in no lint unit", name)
		}
	}

	// Each package's Params(), at its default config, names exactly
	// the params its files declare, at their declared defaults.
	for _, c := range []struct {
		pkg    string
		files  fs.FS
		params map[string][]overlog.Param
	}{
		{"boomfs", boomfs.Files, boomfs.DefaultConfig().Params()},
		{"boommr", boommr.Files, boommr.DefaultMRConfig().Params()},
		{"paxos", paxos.Files, paxos.DefaultConfig().Params()},
		{"membership", membership.Files, membership.Config{}.Params()},
		{"chaos", os.DirFS("../chaos"), chaos.DefaultMonitorConfig().Params()},
	} {
		files, _ := fs.Glob(c.files, "*.olg")
		for name := range c.params {
			if !slices.Contains(files, name) {
				t.Errorf("%s: Params() maps a file %s that does not exist", c.pkg, name)
			}
		}
		for _, name := range files {
			src, _ := fs.ReadFile(c.files, name)
			prog, err := overlog.Parse(string(src))
			if err != nil {
				t.Errorf("%s/%s: %v", c.pkg, name, err)
				continue
			}
			declared := map[string]overlog.Value{}
			for _, d := range prog.Params {
				declared[d.Name] = d.Value
			}
			mapped := map[string]overlog.Value{}
			for _, p := range c.params[name] {
				mapped[p.Name] = p.Value
			}
			if len(declared) != len(mapped) {
				t.Errorf("%s/%s declares %v, Params() maps %v", c.pkg, name, declared, mapped)
			}
			for n, v := range declared {
				if m, ok := mapped[n]; !ok || m != v {
					t.Errorf("%s/%s: param %s defaults to %v, the default config maps %v", c.pkg, name, n, v, m)
				}
			}
		}
	}
}
