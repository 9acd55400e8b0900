// Package programs is the registry of the Overlog programs the system
// ships: every .olg file embedded in analysis (boomlint's own passes),
// boomfs, boommr, kvstore, membership, paxos and rsm, and the
// deployment units boomlint checks them in. `boom rules`, T1 and
// boomlint all read it.
package programs

import (
	"embed"
	"io/fs"
	"slices"
	"sort"
	"strings"

	"repro/internal/boomfs"
	"repro/internal/boommr"
	"repro/internal/kvstore"
	"repro/internal/membership"
	"repro/internal/overlog/analysis"
	"repro/internal/paxos"
	"repro/internal/rsm"
)

// Program is one shipped .olg file. Its Name is the package, then the
// file's stem (with '_' as '-') unless that is the package's name:
// boomfs-master, boomfs-feed-master, paxos.
type Program struct{ Name, Src string }

var packages = map[string]embed.FS{
	"analysis": analysis.Files, "boomfs": boomfs.Files, "boommr": boommr.Files, "kvstore": kvstore.Files,
	"membership": membership.Files, "paxos": paxos.Files, "rsm": rsm.Files,
}

// All returns every shipped program, sorted by name.
func All() []Program {
	var out []Program
	for pkg, files := range packages {
		names, _ := fs.Glob(files, "*.olg")
		for _, file := range names {
			name := pkg
			if stem := strings.TrimSuffix(file, ".olg"); stem != pkg {
				name += "-" + strings.ReplaceAll(stem, "_", "-")
			}
			src, _ := fs.ReadFile(files, file)
			out = append(out, Program{name, string(src)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LintUnits returns every deployment unit boomlint checks, by name.
func LintUnits() []analysis.Unit {
	units := slices.Concat(analysis.LintUnits(), boomfs.LintUnits(), boommr.LintUnits(), kvstore.LintUnits(),
		membership.LintUnits(), paxos.LintUnits(), rsm.LintUnits())
	sort.Slice(units, func(i, j int) bool { return units[i].Name < units[j].Name })
	return units
}
