package experiments

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/boomfs"
	"repro/internal/boommr"
	"repro/internal/overlog"
	"repro/internal/sim"
)

// census lists, as one row, the rules entered at least 10 times that
// have never fired: the catalog's rule names joined with the runtime's
// counters, in one rule.
const census = `
table idle(K: string, Names: list) keys(0);
ce1 idle("idle", setof<N>) :- sys::rule(_, _, _, N, _, _, _, _, _), sys::fire(N, 0, E), E >= 10;
`

// idleRules steps rt once more, so that ce1 reads the sys::fire rows
// the last step left, and returns ce1's list beside the one
// RuleProfiles gives for the same counters, rules sharing a name
// summed as sys::fire sums them.
func idleRules(t *testing.T, rt *overlog.Runtime) (census, profiles []string) {
	t.Helper()
	evals, fires := map[string]int64{}, map[string]int64{}
	for _, p := range rt.RuleProfiles() {
		evals[p.Rule] += p.Evals
		fires[p.Rule] += p.Fires
	}
	for name, n := range evals {
		if n >= 10 && fires[name] == 0 {
			profiles = append(profiles, name)
		}
	}
	slices.Sort(profiles)
	if _, err := rt.Step(rt.NowMS(), nil); err != nil {
		t.Fatal(err)
	}
	for _, tp := range rt.Table("idle").Tuples() {
		for _, v := range tp.Vals[1].AsList() {
			census = append(census, v.AsString())
		}
	}
	slices.Sort(census)
	return census, profiles
}

// TestIdleRuleCensusOnFSMaster: on a sim FS master after a create/ls
// workload, the census rule names exactly the rules RuleProfiles shows
// entered ≥ 10 times for 0 fires.
func TestIdleRuleCensusOnFSMaster(t *testing.T) {
	c := sim.NewCluster()
	cfg := boomfs.DefaultConfig()
	rt, err := c.AddNode("master:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.InstallSource(boomfs.ProtocolDecls); err != nil {
		t.Fatal(err)
	}
	master, err := boomfs.NewMasterOnRuntime(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.InstallSource(census); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := boomfs.NewDataNode(c, fmt.Sprintf("dn:%d", i), master.Addr, cfg); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := boomfs.NewClient(c, "client:0", cfg, master.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1100); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mkdir("/c"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := cl.Create(fmt.Sprintf("/c/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Ls("/c"); err != nil {
		t.Fatal(err)
	}
	got, want := idleRules(t, rt)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("census %v, RuleProfiles %v", got, want)
	}
	t.Logf("FS master, entered >= 10 times for 0 fires: %v", got)
}

// TestIdleRuleCensusOnJobTracker: the same census on an MR jobtracker
// after a wordcount job.
func TestIdleRuleCensusOnJobTracker(t *testing.T) {
	c := sim.NewCluster()
	cfg := boommr.DefaultMRConfig()
	reg := boommr.NewRegistry()
	jt, err := boommr.NewJobTracker(c, "jt:0", boommr.FIFO, cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := jt.Runtime().InstallSource(census); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := boommr.NewTaskTracker(c, fmt.Sprintf("tt:%d", i), jt.Addr, cfg, reg); err != nil {
			t.Fatal(err)
		}
	}
	splits := make([]string, 8)
	for i := range splits {
		splits[i] = "the quick brown fox jumps over the lazy dog"
	}
	job := boommr.NewJob(jt.NewJobID(), splits, 2, boommr.WordCountMap, boommr.WordCountReduce)
	jt.Submit(job)
	if done, err := jt.Wait(job.ID, 600_000); err != nil || !done {
		t.Fatalf("job: done=%v err=%v", done, err)
	}
	got, want := idleRules(t, jt.Runtime())
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("census %v, RuleProfiles %v", got, want)
	}
	t.Logf("jobtracker, entered >= 10 times for 0 fires: %v", got)
}
