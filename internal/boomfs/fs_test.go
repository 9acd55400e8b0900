package boomfs

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// testFS spins up a master, n datanodes and one client.
func testFS(t *testing.T, n int, cfg Config) (*sim.Cluster, *Master, []*DataNode, *Client) {
	t.Helper()
	c := sim.NewCluster(sim.WithLatency(sim.ConstLatency(1)))
	m, err := NewMaster(c, "master:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dns []*DataNode
	for i := 0; i < n; i++ {
		dn, err := NewDataNode(c, fmt.Sprintf("dn:%d", i), m.Addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dns = append(dns, dn)
	}
	cl, err := NewClient(c, "client:0", cfg, m.Addr)
	if err != nil {
		t.Fatal(err)
	}
	// Let a couple of heartbeat rounds land so placement has targets.
	if err := c.Run(cfg.HeartbeatMS*2 + 10); err != nil {
		t.Fatal(err)
	}
	return c, m, dns, cl
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.ReplicationFactor = 2
	cfg.ChunkSize = 16
	return cfg
}

func TestMkdirLsRm(t *testing.T) {
	_, m, _, cl := testFS(t, 3, smallConfig())
	if err := cl.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mkdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/a/f.txt"); err != nil {
		t.Fatal(err)
	}
	names, err := cl.Ls("/a")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, ",") != "b,f.txt" {
		t.Fatalf("ls: %v", names)
	}
	if m.FileCount() != 3 {
		t.Fatalf("file count: %d", m.FileCount())
	}
	// rm refuses non-empty dirs, accepts files and empty dirs.
	if err := cl.Rm("/a"); err == nil {
		t.Fatal("rm of non-empty dir must fail")
	}
	if err := cl.Rm("/a/f.txt"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Rm("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Rm("/a"); err != nil {
		t.Fatal(err)
	}
	if m.FileCount() != 0 {
		t.Fatalf("file count after rm: %d", m.FileCount())
	}
	ok, err := cl.Exists("/a")
	if err != nil || ok {
		t.Fatalf("exists after rm: %v %v", ok, err)
	}
}

func TestMkdirErrors(t *testing.T) {
	_, _, _, cl := testFS(t, 3, smallConfig())
	if err := cl.Mkdir("/no/parent"); err == nil {
		t.Fatal("mkdir without parent must fail")
	}
	if err := cl.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mkdir("/a"); err == nil {
		t.Fatal("duplicate mkdir must fail")
	}
	var opErr *OpError
	err := cl.Mkdir("/a")
	if !errorsAs(err, &opErr) || opErr.Msg != "exists" {
		t.Fatalf("error detail: %v", err)
	}
	// A file is not a valid parent.
	if err := cl.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mkdir("/f/sub"); err == nil {
		t.Fatal("mkdir under a file must fail")
	}
}

func errorsAs(err error, target **OpError) bool {
	for err != nil {
		if oe, ok := err.(*OpError); ok {
			*target = oe
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestMv(t *testing.T) {
	_, m, _, cl := testFS(t, 3, smallConfig())
	if err := cl.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mkdir("/b"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/a/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mv("/a/f", "/b/g"); err != nil {
		t.Fatal(err)
	}
	ok, _ := cl.Exists("/a/f")
	if ok {
		t.Fatal("old path still exists")
	}
	if _, found := m.ResolvePath("/b/g"); !found {
		t.Fatal("new path missing")
	}
	// mv onto an existing path fails.
	if err := cl.Create("/a/h"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mv("/a/h", "/b/g"); err == nil {
		t.Fatal("mv onto existing path must fail")
	}
	// mv of a missing path fails.
	if err := cl.Mv("/nope", "/b/x"); err == nil {
		t.Fatal("mv of missing path must fail")
	}
}

func TestWriteReadFile(t *testing.T) {
	_, m, dns, cl := testFS(t, 3, smallConfig())
	data := "hello, boom-fs! this spans multiple 16-byte chunks for sure."
	if err := cl.WriteFile("/data.txt", data); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("/data.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != data {
		t.Fatalf("read back %q want %q", got, data)
	}
	wantChunks := (len(data) + 15) / 16
	if m.ChunkCount() != wantChunks {
		t.Fatalf("chunk count: %d want %d", m.ChunkCount(), wantChunks)
	}
	// Each chunk is stored on ReplicationFactor datanodes.
	total := 0
	for _, dn := range dns {
		total += dn.ChunkCount()
	}
	if total != wantChunks*2 {
		t.Fatalf("replica count: %d want %d", total, wantChunks*2)
	}
}

func TestEmptyFile(t *testing.T) {
	_, _, _, cl := testFS(t, 3, smallConfig())
	if err := cl.WriteFile("/empty", ""); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("/empty")
	if err != nil || got != "" {
		t.Fatalf("empty read: %q %v", got, err)
	}
}

func TestChunkPlacementDistinctNodes(t *testing.T) {
	_, _, _, cl := testFS(t, 5, smallConfig())
	if err := cl.Create("/f"); err != nil {
		t.Fatal(err)
	}
	_, locs, err := cl.AddChunk("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 2 {
		t.Fatalf("locations: %v", locs)
	}
	if locs[0] == locs[1] {
		t.Fatalf("placement reused a node: %v", locs)
	}
}

func TestAddChunkOnDirFails(t *testing.T) {
	_, _, _, cl := testFS(t, 3, smallConfig())
	if err := cl.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.AddChunk("/d"); err == nil {
		t.Fatal("addchunk on a directory must fail")
	}
	if _, _, err := cl.AddChunk("/missing"); err == nil {
		t.Fatal("addchunk on missing path must fail")
	}
}

func TestNoDataNodes(t *testing.T) {
	cfg := smallConfig()
	c := sim.NewCluster()
	m, err := NewMaster(c, "master:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(c, "client:0", cfg, m.Addr)
	if err != nil {
		t.Fatal(err)
	}
	cfgRun(t, c, 100)
	if err := cl.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.AddChunk("/f"); err == nil {
		t.Fatal("addchunk with no datanodes must fail")
	}
}

func cfgRun(t *testing.T, c *sim.Cluster, ms int64) {
	t.Helper()
	if err := c.Run(c.Now() + ms); err != nil {
		t.Fatal(err)
	}
}

// TestReReplicationAfterDataNodeFailure is the heart of the paper's
// availability story at the data plane: killing a datanode must bring
// chunks back to full replication on the survivors.
func TestReReplicationAfterDataNodeFailure(t *testing.T) {
	cfg := smallConfig()
	c, m, dns, cl := testFS(t, 4, cfg)
	data := "0123456789abcdef" // one chunk
	if err := cl.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	chunks, err := cl.Chunks("/f")
	if err != nil || len(chunks) != 1 {
		t.Fatalf("chunks: %v %v", chunks, err)
	}
	cid := chunks[0]
	// Find a holder and kill it.
	var victim *DataNode
	var survivors []*DataNode
	for _, dn := range dns {
		if dn.HasChunk(cid) && victim == nil {
			victim = dn
		} else {
			survivors = append(survivors, dn)
		}
	}
	if victim == nil {
		t.Fatal("no holder found")
	}
	c.Kill(victim.Addr)
	// Wait out heartbeat timeout + failure detection + copy.
	met, err := c.RunUntil(func() bool {
		n := 0
		for _, dn := range survivors {
			if dn.HasChunk(cid) {
				n++
			}
		}
		return n >= cfg.ReplicationFactor
	}, c.Now()+60_000)
	if err != nil {
		t.Fatal(err)
	}
	if !met {
		t.Fatalf("chunk %d not re-replicated; master sees %d replicas",
			cid, m.ReplicaCount(cid))
	}
	// And the file still reads correctly.
	got, err := cl.ReadFile("/f")
	if err != nil || got != data {
		t.Fatalf("read after failure: %q %v", got, err)
	}
}

func TestReadAfterHolderDies(t *testing.T) {
	cfg := smallConfig()
	c, _, dns, cl := testFS(t, 4, cfg)
	if err := cl.WriteFile("/f", "0123456789abcdef"); err != nil {
		t.Fatal(err)
	}
	chunks, _ := cl.Chunks("/f")
	cid := chunks[0]
	for _, dn := range dns {
		if dn.HasChunk(cid) {
			c.Kill(dn.Addr)
			break
		}
	}
	// Let the master notice the death so chunklocs prefers the live
	// replica; the client also retries across locations.
	cfgRun(t, c, cfg.DNTimeoutMS+cfg.HeartbeatMS*2)
	got, err := cl.ReadFile("/f")
	if err != nil || got != "0123456789abcdef" {
		t.Fatalf("read: %q %v", got, err)
	}
}

// TestDeadDataNodesLeaveLiveSet: once every datanode has been silent
// past DNTimeoutMS, the rules' live set is empty, and LiveDataNodes
// says the same. live_dn is a view over dn_live, which the failure
// detector's tick expires; an aggregate that compared heartbeat stamps
// with now() itself would keep its last set until some datanode row
// changed again.
func TestDeadDataNodesLeaveLiveSet(t *testing.T) {
	cfg := smallConfig()
	c, m, dns, _ := testFS(t, 2, cfg)
	if live := m.LiveDataNodes(); len(live) != 2 {
		t.Fatalf("live before the kill: %v", live)
	}
	for _, dn := range dns {
		c.Kill(dn.Addr)
	}
	cfgRun(t, c, cfg.DNTimeoutMS+3*cfg.FDTickMS)
	if rows := m.rt.Table("live_dn").Tuples(); len(rows) != 0 {
		t.Errorf("live_dn with every datanode dead: %v", rows)
	}
	if live := m.LiveDataNodes(); len(live) != 0 {
		t.Errorf("LiveDataNodes with every datanode dead: %v", live)
	}
}

func TestManyFilesMetadata(t *testing.T) {
	_, m, _, cl := testFS(t, 3, smallConfig())
	if err := cl.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := cl.Create(fmt.Sprintf("/d/f%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := cl.Ls("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != n {
		t.Fatalf("ls count: %d", len(names))
	}
	if names[0] != "f000" || names[n-1] != fmt.Sprintf("f%03d", n-1) {
		t.Fatalf("ls order: %v", names[:3])
	}
	if m.FileCount() != n+1 {
		t.Fatalf("file count: %d", m.FileCount())
	}
}

func TestDeepPaths(t *testing.T) {
	_, m, _, cl := testFS(t, 3, smallConfig())
	path := ""
	for i := 0; i < 8; i++ {
		path = fmt.Sprintf("%s/d%d", path, i)
		if err := cl.Mkdir(path); err != nil {
			t.Fatalf("mkdir %s: %v", path, err)
		}
	}
	if _, ok := m.ResolvePath(path); !ok {
		t.Fatalf("deep path %s not resolved", path)
	}
}

func TestMvEmptyDirectory(t *testing.T) {
	_, m, _, cl := testFS(t, 3, smallConfig())
	if err := cl.Mkdir("/old"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mv("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := cl.Exists("/old"); ok {
		t.Fatal("/old survived mv")
	}
	if _, found := m.ResolvePath("/new"); !found {
		t.Fatal("/new missing")
	}
	// The moved directory still works as a parent.
	if err := cl.Create("/new/child"); err != nil {
		t.Fatal(err)
	}
	// Non-empty directories refuse to move (fqpath maintenance is local
	// to the moved entry).
	if err := cl.Mv("/new", "/other"); err == nil {
		t.Fatal("mv of non-empty dir must fail")
	}
}
