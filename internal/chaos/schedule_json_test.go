package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestScheduleJSONRoundTrip: a seed-derived schedule survives
// serialize/deserialize byte-exactly — the property that makes a saved
// schedule a replayable artifact.
func TestScheduleJSONRoundTrip(t *testing.T) {
	for _, sc := range Registry() {
		for seed := int64(1); seed <= 3; seed++ {
			orig := sc.Schedule(seed)
			var buf bytes.Buffer
			if err := orig.WriteJSON(&buf); err != nil {
				t.Fatalf("%s seed %d: marshal: %v", sc.Name, seed, err)
			}
			got, err := ReadSchedule(&buf)
			if err != nil {
				t.Fatalf("%s seed %d: parse: %v", sc.Name, seed, err)
			}
			if !reflect.DeepEqual(orig, got) {
				t.Fatalf("%s seed %d: round trip diverged\nhave %+v\nwant %+v",
					sc.Name, seed, got, orig)
			}
		}
	}
}

// TestScheduleGoldenFile pins the interchange format: the fs scenario's
// seed-1 schedule must render exactly the checked-in golden JSON, so a
// format change (field renames, ordering) is a conscious diff, not an
// accident that silently breaks saved schedules.
func TestScheduleGoldenFile(t *testing.T) {
	sched := ReplicatedFS().Schedule(1)
	var buf bytes.Buffer
	if err := sched.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fs_seed1_schedule.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file: %v (regenerate by writing the marshaled schedule to %s)", err, golden)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("schedule JSON diverges from %s:\nhave:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
	// And the golden file itself must load back into the same plan.
	got, err := LoadSchedule(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched, got) {
		t.Fatalf("golden file parses to a different schedule")
	}
}

// TestScheduleValidateRejects: malformed plans fail the load, not the
// run.
func TestScheduleValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"unknown kind", `[{"at_ms":1,"kind":"explode","node":"x"}]`, "unknown kind"},
		{"missing node", `[{"at_ms":1,"kind":"kill"}]`, "missing node"},
		{"missing link", `[{"at_ms":1,"kind":"partition","a":"x"}]`, "missing link"},
		{"bad rate", `[{"at_ms":1,"kind":"loss-burst","rate":1.5}]`, "outside [0,1]"},
		{"negative time", `[{"at_ms":-5,"kind":"kill","node":"x"}]`, "negative time"},
		{"never arrives", `[{"at_ms":9000000000000000000,"kind":"kill","node":"px:0"}]`, "horizon"},
		{"sum overflows", `[{"at_ms":9000000000000000000,"kind":"crash-restart","node":"px:0","dur_ms":900000000000000000}]`, "horizon"},
		{"long outage", `[{"at_ms":1000,"kind":"partition","a":"x","b":"y","dur_ms":3600000}]`, "horizon"},
		{"unknown field", `[{"at_ms":1,"kind":"kill","node":"x","frobnicate":true}]`, "unknown field"},
	}
	for _, tc := range cases {
		_, err := ReadSchedule(strings.NewReader(tc.json))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// The three hostile plans the fuzzer starts from beside the registry's:
// overlapping loss bursts, names the paxos cluster lacks, and a
// crash-restart whose end overflows.
const (
	probeBursts   = `[{"at_ms":1000,"kind":"loss-burst","dur_ms":2000,"rate":0.1},{"at_ms":2000,"kind":"loss-burst","dur_ms":2000,"rate":0.2}]`
	probeNames    = `[{"at_ms":1000,"kind":"kill","node":"px:9"},{"at_ms":2000,"kind":"partition","a":"px:0","b":"pz:1","dur_ms":500}]`
	probeOverflow = `[{"at_ms":9000000000000000000,"kind":"crash-restart","node":"px:0","dur_ms":900000000000000000}]`
)

// FuzzReadSchedule feeds the schedule loader mutations of every
// registry scenario's plans for seeds 1-5 and of the three probes. A
// plan it accepts must write back byte for byte, and must not end
// before any of its actions starts.
func FuzzReadSchedule(f *testing.F) {
	for _, sc := range Registry() {
		for seed := int64(1); seed <= 5; seed++ {
			var buf bytes.Buffer
			if err := sc.Schedule(seed).WriteJSON(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	for _, probe := range []string{probeBursts, probeNames, probeOverflow} {
		f.Add([]byte(probe))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSchedule(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := s.WriteJSON(&once); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSchedule(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("rejects its own output %s: %v", once.Bytes(), err)
		}
		if err := back.WriteJSON(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("round trip diverged:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
		for _, a := range s {
			if s.End() < a.AtMS {
				t.Fatalf("End() = %d before %v", s.End(), a)
			}
		}
	})
}
