package hadoopfs

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/boomfs"
	"repro/internal/sim"
)

// modelFS is the specification oracle: a trivial in-memory file tree
// implementing the same metadata semantics the masters are supposed to
// have. Both the Overlog master and the imperative NameNode are checked
// against it on random operation sequences.
type modelFS struct {
	dirs  map[string]bool
	files map[string]bool
}

func newModelFS() *modelFS {
	return &modelFS{dirs: map[string]bool{"/": true}, files: map[string]bool{}}
}

func (m *modelFS) exists(p string) bool { return m.dirs[p] || m.files[p] }

func (m *modelFS) parentDir(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

func (m *modelFS) hasChildren(p string) bool {
	prefix := p + "/"
	if p == "/" {
		prefix = "/"
	}
	for d := range m.dirs {
		if d != p && strings.HasPrefix(d, prefix) && !strings.Contains(d[len(prefix):], "/") {
			return true
		}
	}
	for f := range m.files {
		if strings.HasPrefix(f, prefix) && !strings.Contains(f[len(prefix):], "/") {
			return true
		}
	}
	return false
}

// apply executes one op, returning "OK" or an error tag.
func (m *modelFS) apply(op, path, arg string) string {
	switch op {
	case "mkdir", "create":
		if m.exists(path) {
			return "ERR"
		}
		if !m.dirs[m.parentDir(path)] {
			return "ERR"
		}
		if op == "mkdir" {
			m.dirs[path] = true
		} else {
			m.files[path] = true
		}
		return "OK"
	case "rm":
		if path == "/" || !m.exists(path) {
			return "ERR"
		}
		if m.dirs[path] && m.hasChildren(path) {
			return "ERR"
		}
		delete(m.dirs, path)
		delete(m.files, path)
		return "OK"
	case "mv":
		if path == "/" || !m.exists(path) || m.exists(arg) || strings.HasPrefix(arg, path+"/") {
			return "ERR"
		}
		if m.dirs[path] && m.hasChildren(path) {
			return "ERR"
		}
		if !m.dirs[m.parentDir(arg)] {
			return "ERR"
		}
		if m.dirs[path] {
			delete(m.dirs, path)
			m.dirs[arg] = true
		} else {
			delete(m.files, path)
			m.files[arg] = true
		}
		return "OK"
	case "exists":
		if m.exists(path) {
			return "TRUE"
		}
		return "FALSE"
	case "ls":
		if !m.exists(path) {
			return "ERR"
		}
		prefix := path + "/"
		if path == "/" {
			prefix = "/"
		}
		var names []string
		for d := range m.dirs {
			if d != path && strings.HasPrefix(d, prefix) && !strings.Contains(d[len(prefix):], "/") {
				names = append(names, d[len(prefix):])
			}
		}
		for f := range m.files {
			if strings.HasPrefix(f, prefix) && !strings.Contains(f[len(prefix):], "/") {
				names = append(names, f[len(prefix):])
			}
		}
		sort.Strings(names)
		return "LS:" + strings.Join(names, ",")
	}
	return "ERR"
}

type fsOp struct {
	op, path, arg string
}

// genOps produces a random but plausible op sequence over a small
// namespace (so collisions, re-creates and non-empty-dir cases occur).
func genOps(r *rand.Rand, n int) []fsOp {
	names := []string{"a", "b", "c", "d"}
	randPath := func() string {
		depth := 1 + r.Intn(3)
		parts := make([]string, depth)
		for i := range parts {
			parts[i] = names[r.Intn(len(names))]
		}
		return "/" + strings.Join(parts, "/")
	}
	ops := make([]fsOp, n)
	for i := range ops {
		switch r.Intn(7) {
		case 0:
			ops[i] = fsOp{"mkdir", randPath(), ""}
		case 1, 2:
			ops[i] = fsOp{"create", randPath(), ""}
		case 3:
			ops[i] = fsOp{"rm", randPath(), ""}
		case 4:
			ops[i] = fsOp{"mv", randPath(), randPath()}
		case 5:
			ops[i] = fsOp{"exists", randPath(), ""}
		default:
			ops[i] = fsOp{"ls", randPath(), ""}
		}
	}
	return ops
}

// runAgainst executes ops against a real master via a client, encoding
// results in the oracle's vocabulary.
func runAgainst(t *testing.T, cl *boomfs.Client, ops []fsOp) []string {
	t.Helper()
	out := make([]string, len(ops))
	for i, op := range ops {
		switch op.op {
		case "exists":
			ok, err := cl.Exists(op.path)
			if err != nil {
				t.Fatalf("exists %s: %v", op.path, err)
			}
			if ok {
				out[i] = "TRUE"
			} else {
				out[i] = "FALSE"
			}
		case "ls":
			names, err := cl.Ls(op.path)
			if err != nil {
				out[i] = "ERR"
			} else {
				out[i] = "LS:" + strings.Join(names, ",")
			}
		case "mkdir":
			out[i] = okErr(cl.Mkdir(op.path))
		case "create":
			out[i] = okErr(cl.Create(op.path))
		case "rm":
			out[i] = okErr(cl.Rm(op.path))
		case "mv":
			out[i] = okErr(cl.Mv(op.path, op.arg))
		}
	}
	return out
}

func okErr(err error) string {
	if err != nil {
		return "ERR"
	}
	return "OK"
}

// TestPropMastersMatchModel is the model-based differential test: on
// random op sequences, the Overlog master, the imperative NameNode, and
// the specification model must produce identical observable results.
func TestPropMastersMatchModel(t *testing.T) {
	f := func(seed int64) bool { return mastersMatchModel(t, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestMvDirIntoItselfRejected pins a seed quick.Check once drew: its
// ops move the empty directory /b to /b/b, under itself. All three
// accepted it, and then disagreed on what ls /b lists.
func TestMvDirIntoItselfRejected(t *testing.T) {
	if !mastersMatchModel(t, -3717448328707295846) {
		t.Fatal("masters and model disagree")
	}
}

// mastersMatchModel runs the op sequence seed generates against the
// model, the Overlog master and the NameNode, and reports whether all
// three answered every op alike.
func mastersMatchModel(t *testing.T, seed int64) bool {
	r := rand.New(rand.NewSource(seed))
	ops := genOps(r, 25)

	model := newModelFS()
	want := make([]string, len(ops))
	for i, op := range ops {
		want[i] = model.apply(op.op, op.path, op.arg)
	}

	boomCl := newBoomClient(t)
	boomGot := runAgainst(t, boomCl, ops)

	_, _, _, nnCl := testNN(t, 2, smallConfig())
	nnGot := runAgainst(t, nnCl, ops)

	for i := range ops {
		if boomGot[i] != want[i] {
			t.Logf("seed %d op %d %+v: boom=%q model=%q", seed, i, ops[i], boomGot[i], want[i])
			return false
		}
		if nnGot[i] != want[i] {
			t.Logf("seed %d op %d %+v: namenode=%q model=%q", seed, i, ops[i], nnGot[i], want[i])
			return false
		}
	}
	return true
}

func newBoomClient(t *testing.T) *boomfs.Client {
	t.Helper()
	cfg := smallConfig()
	c := sim.NewCluster()
	m, err := boomfs.NewMaster(c, "master:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := boomfs.NewDataNode(c, fmt.Sprintf("dn:%d", i), m.Addr, cfg); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := boomfs.NewClient(c, "client:0", cfg, m.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(cfg.HeartbeatMS*2 + 10); err != nil {
		t.Fatal(err)
	}
	return cl
}
