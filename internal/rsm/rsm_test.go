package rsm

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/overlog"
	"repro/internal/paxos"
)

// host records every apply and done a runtime's replay rules emit, in
// order. Its step plays the learner, inserting decided rows itself.
type host struct {
	rt    *overlog.Runtime
	now   int64
	apply []string // "S Id"
	done  []string // "Id"
}

// install sets up a bare runtime: decided declared as Paxos declares
// it, and rules, with no Paxos.
func (h *host) install(rt *overlog.Runtime, rules string) error {
	if err := rt.InstallSource(`table decided(Slot: int, Cmd: list) keys(0) durable;`); err != nil {
		return err
	}
	if err := rt.InstallSource(rules); err != nil {
		return err
	}
	return h.attach(rt)
}

// attach makes rt the host's runtime and records its apply and done.
func (h *host) attach(rt *overlog.Runtime) error {
	h.rt = rt
	for _, table := range []string{"apply", "done"} {
		if err := rt.AddWatch(table, "i"); err != nil {
			return err
		}
	}
	rt.RegisterWatcher(func(e overlog.WatchEvent) {
		switch e.Tuple.Table {
		case "apply":
			h.apply = append(h.apply, fmt.Sprintf("%d %s", e.Tuple.Vals[0].AsInt(), e.Tuple.Vals[1].AsString()))
		case "done":
			h.done = append(h.done, e.Tuple.Vals[0].AsString())
		}
	})
	return nil
}

// step runs one step with the given decided slots (slot, id pairs)
// arriving, and returns what it applied and acknowledged.
func (h *host) step(t *testing.T, slots ...any) (apply, done []string) {
	t.Helper()
	var in []overlog.Tuple
	for i := 0; i < len(slots); i += 2 {
		id := slots[i+1].(string)
		in = append(in, overlog.NewTuple("decided", overlog.Int(int64(slots[i].(int))),
			overlog.List(overlog.Str(id), overlog.Addr("client:"+id), overlog.Str("op"))))
	}
	a0, d0 := len(h.apply), len(h.done)
	h.now++
	if _, err := h.rt.Step(h.now, in); err != nil {
		t.Fatal(err)
	}
	return h.apply[a0:], h.done[d0:]
}

func (h *host) cursor() int64 {
	tp, _ := h.rt.Table("applied").LookupKey(overlog.NewTuple("applied", overlog.Str("a"), overlog.Int(0)))
	return tp.Vals[1].AsInt()
}

// TestApplyOncePerIDInSlotOrder drives the replay rules with no Paxos
// under them: slots learned out of order, one id decided in two slots
// that land in a single step, and a crash-restart mid-stream.
func TestApplyOncePerIDInSlotOrder(t *testing.T) {
	h := &host{}
	if err := h.install(overlog.NewRuntime("r:0"), Rules+seed); err != nil {
		t.Fatal(err)
	}
	// Slots 2, 3 and 5 arrive before slot 0: nothing may apply.
	if a, d := h.step(t, 5, "d", 3, "c", 2, "b"); len(a)+len(d) != 0 {
		t.Fatalf("applied %v, acknowledged %v with slot 0 unknown", a, d)
	}
	// Slots 0 and 1 both carry id a, and land together with slot 4
	// (a second slot for b): one slot per step, so only slot 0 applies.
	if a, d := h.step(t, 1, "a", 0, "a", 4, "b"); !reflect.DeepEqual(a, []string{"0 a"}) ||
		!reflect.DeepEqual(d, []string{"a"}) {
		t.Fatalf("first step with slot 0: applied %v, acknowledged %v; want [0 a], [a]", a, d)
	}
	// Slot 1 is a duplicate of a: acknowledged, not applied.
	if a, d := h.step(t); len(a) != 0 || !reflect.DeepEqual(d, []string{"a"}) {
		t.Fatalf("duplicate slot 1: applied %v, acknowledged %v; want [], [a]", a, d)
	}
	// Crash here, and come back as InstallRestarted does: the rules
	// without seed. The cursor's advance past slot 1 was still deferred,
	// so the restored cursor stands at slot 1 and re-passes it.
	at := h.cursor()
	if at != 1 {
		t.Fatalf("cursor %d before the crash, want 1", at)
	}
	err := overlog.Restart(h.rt, overlog.NewRuntime("r:0"), func(fresh *overlog.Runtime) error {
		return h.install(fresh, Rules)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.cursor(); got != at {
		t.Fatalf("restored cursor %d, want %d", got, at)
	}
	for i := 0; i < 10; i++ {
		h.step(t)
	}
	if want := []string{"0 a", "2 b", "3 c", "5 d"}; !reflect.DeepEqual(h.apply, want) {
		t.Fatalf("applied %v, want %v: once per id, in slot order", h.apply, want)
	}
	// Every slot the cursor passed was acknowledged: slot 1 twice, since
	// the crash fell between its acknowledgement and the cursor's advance.
	if want := []string{"a", "a", "a", "b", "c", "b", "d"}; !reflect.DeepEqual(h.done, want) {
		t.Fatalf("acknowledged %v, want %v", h.done, want)
	}
	if got := h.cursor(); got != 6 {
		t.Fatalf("cursor %d after the last slot, want 6", got)
	}
}

// TestRestartedReplicaPassesEachSlotOnce restarts through
// InstallRestarted after the cursor has caught up. It must resume at
// the restored cursor and pass only new slots. A seed installed under
// the restore would be displaced by the restored row yet still
// evaluated: slot 0 would be acknowledged again, and the cursor would
// then re-pass the slot before it in every later step.
func TestRestartedReplicaPassesEachSlotOnce(t *testing.T) {
	members := []string{"r:0"}
	cfg := paxos.DefaultConfig()
	h := &host{}
	rt := overlog.NewRuntime("r:0")
	if err := Install(rt, "r:0", members, cfg, ""); err != nil {
		t.Fatal(err)
	}
	if err := h.attach(rt); err != nil {
		t.Fatal(err)
	}
	h.step(t, 0, "a", 1, "b", 2, "c")
	for i := 0; i < 5; i++ {
		h.step(t)
	}
	err := overlog.Restart(h.rt, overlog.NewRuntime("r:0"), func(fresh *overlog.Runtime) error {
		if err := InstallRestarted(fresh, "r:0", members, cfg, ""); err != nil {
			return err
		}
		return h.attach(fresh)
	})
	if err != nil {
		t.Fatal(err)
	}
	h.done = nil
	h.step(t, 3, "d")
	for i := 0; i < 5; i++ {
		h.step(t)
	}
	if want := []string{"d"}; !reflect.DeepEqual(h.done, want) {
		t.Fatalf("after the restart acknowledged %v, want %v", h.done, want)
	}
	if want := []string{"0 a", "1 b", "2 c", "3 d"}; !reflect.DeepEqual(h.apply, want) {
		t.Fatalf("applied %v, want %v", h.apply, want)
	}
}
