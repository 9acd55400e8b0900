package overlog_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/boomfs"
	"repro/internal/overlog"
	"repro/internal/paxos"
)

// FuzzRestoreSnapshot feeds arbitrary bytes to RestoreSnapshot over a
// replicated BOOM-FS master's durable schema. The checked-in seeds
// (testdata/fuzz) are the golden images of a Paxos replica and of a
// replicated master, plus a corrupt arity. No input may panic, and an
// accepted input must re-snapshot to bytes that restore to equal
// tables.
func FuzzRestoreSnapshot(f *testing.F) {
	master := overlog.NewRuntime("m:0")
	if err := boomfs.InstallReplicatedMaster(master, "m:0", []string{"m:0"},
		boomfs.DefaultConfig(), paxos.DefaultConfig()); err != nil {
		f.Fatal(err)
	}
	var decls strings.Builder
	for _, name := range master.TableNames() {
		if d := master.Table(name).Decl(); d.Durable {
			decls.WriteString(d.String())
		}
	}
	fresh := func(t *testing.T) *overlog.Runtime {
		rt := overlog.NewRuntime("m:0")
		if err := rt.InstallSource(decls.String()); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		rt := fresh(t)
		if rt.RestoreSnapshot(bytes.NewReader(image)) != nil {
			return
		}
		var again bytes.Buffer
		if err := rt.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		rt2 := fresh(t)
		if err := rt2.RestoreSnapshot(bytes.NewReader(again.Bytes())); err != nil {
			t.Fatalf("re-snapshot of an accepted image does not restore: %v", err)
		}
		for _, name := range rt.TableNames() {
			if got, want := rt2.Table(name).Dump(), rt.Table(name).Dump(); got != want {
				t.Fatalf("%s after a second round trip:\n%s\nwant\n%s", name, got, want)
			}
		}
	})
}

// FuzzParse feeds the parser mutations of every shipped .olg file
// (globbed from the repository, so no copies are checked in). Parse
// must not panic, and a program it accepts must install on a fresh
// runtime or be refused with an error, never a panic.
func FuzzParse(f *testing.F) {
	for _, pattern := range []string{"../*/*.olg", "../../examples/*/*.olg"} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := overlog.Parse(src)
		if err != nil {
			return
		}
		_ = overlog.NewRuntime("n:0").Install(prog)
	})
}
