package boomfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/overlog"
	"repro/internal/sim"
)

// DataNode stores chunk bytes and heartbeats its inventory to the
// master. Heartbeats and the write pipeline are Overlog rules
// (DataNodeRules); only the byte store is Go.
type DataNode struct {
	Addr    string
	masters []string
	rt      *overlog.Runtime
	cfg     Config

	mu     sync.Mutex
	chunks map[int64]string
	// WritesServed / ReadsServed count data-plane ops (experiments).
	WritesServed int64
	ReadsServed  int64
}

// installDataNodeProgram loads the protocol and datanode rules onto a
// runtime (shared between first boot and crash-restart).
func installDataNodeProgram(rt *overlog.Runtime, cfg Config) error {
	if err := rt.InstallSource(ProtocolDecls); err != nil {
		return fmt.Errorf("boomfs: datanode protocol: %w", err)
	}
	src := expand(DataNodeRules, map[string]string{"HBMS": fmt.Sprintf("%d", cfg.HeartbeatMS)})
	if err := rt.InstallSource(src); err != nil {
		return fmt.Errorf("boomfs: datanode rules: %w", err)
	}
	return nil
}

// NewDataNodeOnRuntime installs the datanode program on an existing
// runtime and returns the node plus its data-plane service, so the
// same glue can run under the simulator or the real-time driver.
func NewDataNodeOnRuntime(rt *overlog.Runtime, master string, cfg Config) (*DataNode, sim.Service, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if err := installDataNodeProgram(rt, cfg); err != nil {
		return nil, nil, err
	}
	dn := &DataNode{Addr: rt.LocalAddr(), masters: []string{master},
		rt: rt, cfg: cfg, chunks: make(map[int64]string)}
	if err := rt.InstallSource(fmt.Sprintf(`master("%s");`, master)); err != nil {
		return nil, nil, err
	}
	return dn, &chunkStore{dn: dn}, nil
}

// NewDataNode creates a datanode on the cluster, pointed at a master.
// The node registers a crash-restart spec: its chunk bytes survive a
// restart (they are the "disk") while its runtime state rebuilds from
// the reinstalled rules and the surviving inventory.
func NewDataNode(c *sim.Cluster, addr, master string, cfg Config) (*DataNode, error) {
	rt, err := c.AddNode(addr)
	if err != nil {
		return nil, err
	}
	dn, svc, err := NewDataNodeOnRuntime(rt, master, cfg)
	if err != nil {
		return nil, err
	}
	if err := c.AttachService(addr, svc); err != nil {
		return nil, err
	}
	if err := c.SetSpec(addr, dn.RestartSpec()); err != nil {
		return nil, err
	}
	return dn, nil
}

// RestartSpec rebuilds a crashed datanode: rules and master facts are
// reinstalled, the chunk bytes survive in the Go store (the disk), and
// the stored_chunk inventory is re-seeded from it so the next
// heartbeat re-reports everything the node holds. In-flight pipeline
// and ack state is lost with the runtime.
func (d *DataNode) RestartSpec() sim.NodeSpec {
	return func(_, fresh *overlog.Runtime) ([]sim.Service, error) {
		if err := installDataNodeProgram(fresh, d.cfg); err != nil {
			return nil, err
		}
		var facts strings.Builder
		for _, m := range d.masters {
			fmt.Fprintf(&facts, "master(%q);\n", m)
		}
		d.mu.Lock()
		ids := make([]int64, 0, len(d.chunks))
		for id := range d.chunks {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			fmt.Fprintf(&facts, "stored_chunk(%d, %d);\n", id, len(d.chunks[id]))
		}
		d.mu.Unlock()
		if err := fresh.InstallSource(facts.String()); err != nil {
			return nil, err
		}
		d.rt = fresh
		return []sim.Service{&chunkStore{dn: d}}, nil
	}
}

// Runtime exposes the underlying runtime.
func (d *DataNode) Runtime() *overlog.Runtime { return d.rt }

// HasChunk reports whether the chunk is stored locally.
func (d *DataNode) HasChunk(id int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.chunks[id]
	return ok
}

// ChunkCount returns the number of chunks stored.
func (d *DataNode) ChunkCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.chunks)
}

// chunkStore is the imperative data plane: it reacts to pipeline and
// read events by moving bytes, charging simulated disk/transfer time.
type chunkStore struct {
	dn *DataNode
}

func (s *chunkStore) Tables() []string {
	// dn_replicate needs no entry: rule w3 turns it into dn_store.
	return []string{"dn_store", "dn_read", "repl_cmd", "gc_cmd"}
}

func (s *chunkStore) OnEvent(_ sim.Env, ev overlog.WatchEvent) []sim.Injection {
	d := s.dn
	switch ev.Tuple.Table {
	case "dn_store":
		reqID := ev.Tuple.Vals[0].AsString()
		client := ev.Tuple.Vals[1].AsString()
		chunkID := ev.Tuple.Vals[2].AsInt()
		data := ev.Tuple.Vals[3].AsString()
		d.mu.Lock()
		d.chunks[chunkID] = data
		d.WritesServed++
		d.mu.Unlock()
		cost := d.cfg.transferMS(len(data))
		out := []sim.Injection{{
			To:      d.Addr,
			Tuple:   overlog.NewTuple("stored_chunk", overlog.Int(chunkID), overlog.Int(int64(len(data)))),
			DelayMS: cost,
		}}
		if reqID != "" && client != "" {
			out = append(out, sim.Injection{
				To: client,
				Tuple: overlog.NewTuple("dn_write_ack",
					overlog.Addr(client), overlog.Str(reqID), overlog.Int(chunkID), overlog.Addr(d.Addr)),
				DelayMS: cost,
			})
		}
		return out

	case "dn_read":
		reqID := ev.Tuple.Vals[1].AsString()
		client := ev.Tuple.Vals[2].AsString()
		chunkID := ev.Tuple.Vals[3].AsInt()
		d.mu.Lock()
		data, ok := d.chunks[chunkID]
		if ok {
			d.ReadsServed++
		}
		d.mu.Unlock()
		return []sim.Injection{{
			To: client,
			Tuple: overlog.NewTuple("dn_read_resp",
				overlog.Addr(client), overlog.Str(reqID), overlog.Int(chunkID),
				overlog.Str(data), overlog.Bool(ok)),
			DelayMS: d.cfg.transferMS(len(data)),
		}}

	case "gc_cmd":
		chunkID := ev.Tuple.Vals[1].AsInt()
		d.mu.Lock()
		delete(d.chunks, chunkID)
		d.mu.Unlock()
		return nil

	case "repl_cmd":
		chunkID := ev.Tuple.Vals[1].AsInt()
		target := ev.Tuple.Vals[2].AsString()
		d.mu.Lock()
		data, ok := d.chunks[chunkID]
		d.mu.Unlock()
		if !ok || target == d.Addr {
			return nil
		}
		return []sim.Injection{{
			To: target,
			Tuple: overlog.NewTuple("dn_replicate",
				overlog.Addr(target), overlog.Int(chunkID), overlog.Str(data)),
			DelayMS: d.cfg.transferMS(len(data)),
		}}
	}
	return nil
}
