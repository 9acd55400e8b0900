// Package hadoopfs is the imperative comparator for BOOM-FS: a
// NameNode written as plain Go data structures and hand-rolled control
// flow, speaking exactly the same tuple protocol as the Overlog master.
// It stands in for stock HDFS in the paper's performance comparison
// ("BOOM-FS vs HDFS"), holding the substrate constant so the comparison
// isolates the declarative-vs-imperative difference.
package hadoopfs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/boomfs"
	"repro/internal/overlog"
	"repro/internal/sim"
)

// inode is one file-tree entry.
type inode struct {
	id       int64
	parent   int64
	name     string
	isDir    bool
	children map[string]*inode
	chunks   []int64
}

// NameNode is the imperative HDFS-style master. It attaches to a bare
// runtime that only declares the protocol tables; all behaviour is in
// Go (compare internal/boomfs/rules.go where it is all Overlog).
type NameNode struct {
	Addr string
	cfg  boomfs.Config
	rt   *overlog.Runtime

	nextID  int64
	root    *inode
	byID    map[int64]*inode
	byPath  map[string]*inode
	nodes   map[string]int64           // datanode -> last heartbeat
	chunks  map[int64]map[string]int64 // chunk -> node -> bytes
	hints   map[int64][]string         // chunk -> placement hint
	chunkOf map[int64]int64            // chunk -> file

	// RequestsServed counts metadata ops (experiments).
	RequestsServed int64
}

// NewNameNode creates an imperative master on the cluster.
func NewNameNode(c *sim.Cluster, addr string, cfg boomfs.Config) (*NameNode, error) {
	rt, err := c.AddNode(addr)
	if err != nil {
		return nil, err
	}
	if err := rt.InstallSource(boomfs.ProtocolDecls); err != nil {
		return nil, err
	}
	// The failure detector needs a periodic; everything else is Go.
	if err := rt.InstallSource(fmt.Sprintf("periodic nn_fd_tick interval %d;", cfg.FDTickMS)); err != nil {
		return nil, err
	}
	root := &inode{id: 0, parent: -1, name: "", isDir: true, children: map[string]*inode{}}
	nn := &NameNode{
		Addr:    addr,
		cfg:     cfg,
		rt:      rt,
		root:    root,
		byID:    map[int64]*inode{0: root},
		byPath:  map[string]*inode{"/": root},
		nodes:   map[string]int64{},
		chunks:  map[int64]map[string]int64{},
		hints:   map[int64][]string{},
		chunkOf: map[int64]int64{},
	}
	if err := c.AttachService(addr, &nnService{nn: nn}); err != nil {
		return nil, err
	}
	return nn, nil
}

// Runtime exposes the node runtime.
func (nn *NameNode) Runtime() *overlog.Runtime { return nn.rt }

// FileCount mirrors boomfs.Master.FileCount.
func (nn *NameNode) FileCount() int { return len(nn.byID) - 1 }

// ChunkCount mirrors boomfs.Master.ChunkCount.
func (nn *NameNode) ChunkCount() int { return len(nn.chunkOf) }

// nnService wires protocol events into the imperative implementation.
type nnService struct {
	nn *NameNode
}

func (s *nnService) Tables() []string {
	return []string{"request", "dn_alive", "dn_chunk", "nn_fd_tick"}
}

func (s *nnService) OnEvent(env sim.Env, ev overlog.WatchEvent) []sim.Injection {
	nn := s.nn
	switch ev.Tuple.Table {
	case "dn_alive":
		nn.nodes[ev.Tuple.Vals[1].AsString()] = env.Now()
		return nil
	case "dn_chunk":
		node := ev.Tuple.Vals[1].AsString()
		chunk := ev.Tuple.Vals[2].AsInt()
		bytes := ev.Tuple.Vals[3].AsInt()
		m, ok := nn.chunks[chunk]
		if !ok {
			m = map[string]int64{}
			nn.chunks[chunk] = m
		}
		m[node] = bytes
		return nil
	case "nn_fd_tick":
		return nn.reReplicate(env)
	case "request":
		return nn.handleRequest(env, ev.Tuple)
	}
	return nil
}

// liveNodes returns datanodes with fresh heartbeats, sorted.
func (nn *NameNode) liveNodes(now int64) []string {
	var out []string
	for n, t := range nn.nodes {
		if t >= now-nn.cfg.DNTimeoutMS {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// liveReplicas returns live holders of a chunk, sorted.
func (nn *NameNode) liveReplicas(chunk, now int64) []string {
	var out []string
	for n := range nn.chunks[chunk] {
		if t, ok := nn.nodes[n]; ok && t >= now-nn.cfg.DNTimeoutMS {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func (nn *NameNode) resolve(path string) *inode {
	return nn.byPath[path]
}

func (nn *NameNode) pathOf(in *inode) string {
	if in.id == 0 {
		return "/"
	}
	parent := nn.byID[in.parent]
	pp := nn.pathOf(parent)
	if pp == "/" {
		return "/" + in.name
	}
	return pp + "/" + in.name
}

func splitPath(path string) (dir, base string) {
	path = strings.TrimRight(path, "/")
	if path == "" {
		return "/", ""
	}
	i := strings.LastIndexByte(path, '/')
	if i == 0 {
		return "/", path[1:]
	}
	return path[:i], path[i+1:]
}

// respond builds a response injection addressed to the requester.
func respond(client, reqID string, ok bool, result []overlog.Value, errMsg string) []sim.Injection {
	return []sim.Injection{{
		To: client,
		Tuple: overlog.NewTuple("response",
			overlog.Addr(client), overlog.Str(reqID), overlog.Bool(ok),
			overlog.List(result...), overlog.Str(errMsg)),
	}}
}

func (nn *NameNode) handleRequest(env sim.Env, tp overlog.Tuple) []sim.Injection {
	nn.RequestsServed++
	reqID := tp.Vals[1].AsString()
	client := tp.Vals[2].AsString()
	op := tp.Vals[3].AsString()
	path := tp.Vals[4].AsString()
	arg := tp.Vals[5].AsString()
	fail := func(msg string) []sim.Injection { return respond(client, reqID, false, nil, msg) }
	okResp := func(result ...overlog.Value) []sim.Injection { return respond(client, reqID, true, result, "") }

	switch op {
	case "exists":
		if in := nn.resolve(path); in != nil {
			return okResp(overlog.Int(in.id))
		}
		return fail("not found")

	case "ls":
		in := nn.resolve(path)
		if in == nil {
			return fail("not found")
		}
		names := make([]string, 0, len(in.children))
		for n := range in.children {
			names = append(names, n)
		}
		sort.Strings(names)
		vals := make([]overlog.Value, len(names))
		for i, n := range names {
			vals[i] = overlog.Str(n)
		}
		return okResp(vals...)

	case "mkdir", "create":
		if nn.resolve(path) != nil {
			return fail("exists")
		}
		dir, base := splitPath(path)
		parent := nn.resolve(dir)
		if parent == nil || !parent.isDir || base == "" {
			return fail("parent missing")
		}
		nn.nextID++
		in := &inode{id: nn.nextID, parent: parent.id, name: base, isDir: op == "mkdir",
			children: map[string]*inode{}}
		parent.children[base] = in
		nn.byID[in.id] = in
		nn.byPath[path] = in
		return okResp(overlog.Int(in.id))

	case "rm":
		if path == "/" {
			return fail("cannot remove root")
		}
		in := nn.resolve(path)
		if in == nil {
			return fail("not found")
		}
		if len(in.children) > 0 {
			return fail("not empty")
		}
		parent := nn.byID[in.parent]
		delete(parent.children, in.name)
		delete(nn.byID, in.id)
		delete(nn.byPath, path)
		for _, cid := range in.chunks {
			delete(nn.chunkOf, cid)
		}
		return okResp()

	case "mv":
		in := nn.resolve(path)
		if in == nil || in.id == 0 || len(in.children) > 0 {
			return fail("mv failed")
		}
		if nn.resolve(arg) != nil {
			return fail("mv failed")
		}
		dir, base := splitPath(arg)
		newParent := nn.resolve(dir)
		// in has no children, so newParent == in is the whole "into its
		// own subtree" case.
		if newParent == nil || !newParent.isDir || base == "" || newParent == in {
			return fail("mv failed")
		}
		oldParent := nn.byID[in.parent]
		delete(oldParent.children, in.name)
		delete(nn.byPath, path)
		in.parent = newParent.id
		in.name = base
		newParent.children[base] = in
		nn.byPath[arg] = in
		return okResp()

	case "addchunk":
		in := nn.resolve(path)
		if in == nil {
			return fail("no such file")
		}
		if in.isDir {
			return fail("no such file")
		}
		live := nn.liveNodes(env.Now())
		if len(live) == 0 {
			return fail("no live datanodes")
		}
		nn.nextID++
		cid := nn.nextID
		in.chunks = append(in.chunks, cid)
		nn.chunkOf[cid] = in.id
		locs := pickK(live, nn.cfg.ReplicationFactor, cid)
		nn.hints[cid] = locs
		result := []overlog.Value{overlog.Int(cid)}
		for _, l := range locs {
			result = append(result, overlog.Addr(l))
		}
		return okResp(result...)

	case "chunks":
		in := nn.resolve(path)
		if in == nil {
			return fail("not found")
		}
		result := make([]overlog.Value, len(in.chunks))
		for i, cid := range in.chunks {
			result[i] = overlog.List(overlog.Int(int64(i)), overlog.Int(cid))
		}
		return okResp(result...)

	case "chunklocs":
		cid, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return fail("bad chunk id")
		}
		locs := nn.liveReplicas(cid, env.Now())
		if len(locs) == 0 {
			locs = nn.hints[cid]
		}
		if len(locs) == 0 {
			return fail("no replicas")
		}
		result := make([]overlog.Value, len(locs))
		for i, l := range locs {
			result[i] = overlog.Addr(l)
		}
		return okResp(result...)
	}
	return fail("unknown op " + op)
}

// reReplicate issues copy commands for under-replicated chunks, the
// imperative twin of rule rr1.
func (nn *NameNode) reReplicate(env sim.Env) []sim.Injection {
	now := env.Now()
	live := nn.liveNodes(now)
	var out []sim.Injection
	for cid := range nn.chunkOf {
		holders := nn.liveReplicas(cid, now)
		if len(holders) == 0 || len(holders) >= nn.cfg.ReplicationFactor {
			continue
		}
		holderSet := map[string]bool{}
		for _, h := range holders {
			holderSet[h] = true
		}
		var cands []string
		for _, n := range live {
			if !holderSet[n] {
				cands = append(cands, n)
			}
		}
		if len(cands) == 0 {
			continue
		}
		target := pickK(cands, 1, cid+now)[0]
		out = append(out, sim.Injection{
			To: holders[0],
			Tuple: overlog.NewTuple("repl_cmd",
				overlog.Addr(holders[0]), overlog.Int(cid), overlog.Addr(target)),
		})
	}
	return out
}

// pickK deterministically picks k distinct entries seeded by seed,
// mirroring the Overlog pickk builtin.
func pickK(src []string, k int, seed int64) []string {
	if k > len(src) {
		k = len(src)
	}
	out := append([]string(nil), src...)
	s := uint64(seed)*2654435761 + 1
	for i := 0; i < k; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		j := i + int(s%uint64(len(out)-i))
		out[i], out[j] = out[j], out[i]
	}
	return out[:k]
}
