package boomfs

import (
	"fmt"

	"repro/internal/overlog"
	"repro/internal/sim"
)

// Master is a BOOM-FS NameNode. All of its behaviour lives in
// MasterRules; this struct only installs the program and exposes
// inspection helpers. (The absence of Go logic here is the point of
// the paper.)
type Master struct {
	Addr string
	rt   *overlog.Runtime
}

// NewMaster creates a master node on the cluster.
func NewMaster(c *sim.Cluster, addr string, cfg Config) (*Master, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rt, err := c.AddNode(addr)
	if err != nil {
		return nil, err
	}
	if err := installMasterProgram(rt, cfg); err != nil {
		return nil, err
	}
	return &Master{Addr: addr, rt: rt}, nil
}

// installMasterProgram loads the protocol and master rules into an
// existing runtime (shared with the replicated-master wrapper).
func installMasterProgram(rt *overlog.Runtime, cfg Config) error {
	if err := rt.InstallSource(ProtocolDecls); err != nil {
		return fmt.Errorf("boomfs: installing protocol: %w", err)
	}
	return installMasterRules(rt, cfg)
}

// installMasterRules loads the master rules, and the gc rules when gc
// is on.
func installMasterRules(rt *overlog.Runtime, cfg Config) error {
	if err := rt.InstallSource(expand(MasterRules, cfg.masterVars())); err != nil {
		return fmt.Errorf("boomfs: installing master rules: %w", err)
	}
	if cfg.GCTickMS > 0 {
		if err := rt.InstallSource(expand(GCRules, cfg.masterVars())); err != nil {
			return fmt.Errorf("boomfs: installing gc rules: %w", err)
		}
	}
	return nil
}

// NewMasterOnRuntime installs the master program onto an existing
// runtime (used when the caller needs runtime options, e.g. the
// monitoring experiment's watch-all mode) and returns the master view.
func NewMasterOnRuntime(rt *overlog.Runtime, cfg Config) (*Master, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := installMasterRules(rt, cfg); err != nil {
		return nil, err
	}
	return &Master{Addr: rt.LocalAddr(), rt: rt}, nil
}

// Runtime exposes the underlying Overlog runtime (tests, monitoring).
func (m *Master) Runtime() *overlog.Runtime { return m.rt }

// FileCount returns the number of catalog entries excluding the root.
func (m *Master) FileCount() int { return m.rt.Table("file").Len() - 1 }

// ChunkCount returns the number of allocated chunks.
func (m *Master) ChunkCount() int { return m.rt.Table("fchunk").Len() }

// LiveDataNodes lists the datanodes the rules hold live (dn_live).
func (m *Master) LiveDataNodes() []string {
	var out []string
	m.rt.Table("dn_live").Scan(func(tp overlog.Tuple) bool {
		if tp.Vals[1].AsBool() {
			out = append(out, tp.Vals[0].AsString())
		}
		return true
	})
	return out
}

// ReplicaCount returns the live-replica count the master believes a
// chunk has.
func (m *Master) ReplicaCount(chunkID int64) int {
	tp, ok := m.rt.Table("chunk_repl").LookupKey(
		overlog.NewTuple("chunk_repl", overlog.Int(chunkID), overlog.Int(0), overlog.List()))
	if !ok {
		return 0
	}
	return int(tp.Vals[1].AsInt())
}

// ResolvePath returns the file id for a path, mirroring what the
// fqpath view holds (test oracle access).
func (m *Master) ResolvePath(path string) (int64, bool) {
	tp, ok := m.rt.Table("fqpath").LookupKey(
		overlog.NewTuple("fqpath", overlog.Str(path), overlog.Int(0)))
	if !ok {
		return 0, false
	}
	return tp.Vals[1].AsInt(), true
}
