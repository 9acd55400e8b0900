package boomfs

import (
	"fmt"

	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/rsm"
	"repro/internal/sim"
)

// ReplicatedMaster is a group of BOOM-FS master replicas coordinated by
// the Overlog Paxos implementation.
type ReplicatedMaster struct {
	Replicas []string
	masters  []*Master
	cluster  *sim.Cluster
	cfg      Config
	pcfg     paxos.Config
}

// NewReplicatedMaster builds n master replicas named prefix:0..n-1.
// Each replica registers a crash-restart spec with the cluster, so
// chaos schedules can Restart replicas (losing soft state) as well as
// Kill/Revive them.
func NewReplicatedMaster(c *sim.Cluster, prefix string, n int, cfg Config, pcfg paxos.Config) (*ReplicatedMaster, error) {
	if n < 1 {
		return nil, fmt.Errorf("boomfs: replicated master needs >= 1 replica")
	}
	var addrs []string
	for i := 0; i < n; i++ {
		addrs = append(addrs, fmt.Sprintf("%s:%d", prefix, i))
	}
	rm := &ReplicatedMaster{Replicas: addrs, cluster: c, cfg: cfg, pcfg: pcfg}
	for _, addr := range addrs {
		rt, err := c.AddNode(addr)
		if err != nil {
			return nil, err
		}
		if err := InstallReplicatedMaster(rt, addr, addrs, cfg, pcfg); err != nil {
			return nil, err
		}
		rm.masters = append(rm.masters, &Master{Addr: addr, rt: rt})
	}
	for i, addr := range addrs {
		if err := c.SetSpec(addr, rm.RestartSpec(i)); err != nil {
			return nil, err
		}
	}
	return rm, nil
}

// InstallReplicatedMaster installs one replica's full program — master
// metadata rules, Paxos, its replay (rsm), the gateway — on a bare
// runtime. This is the driver-agnostic core of NewReplicatedMaster,
// shared with the real-time deployment (rtfs) and the live chaos
// harness.
func InstallReplicatedMaster(rt *overlog.Runtime, self string, replicas []string, cfg Config, pcfg paxos.Config) error {
	if err := installMasterProgram(rt, cfg); err != nil {
		return err
	}
	return rsm.Install(rt, self, replicas, pcfg, gatewayRules)
}

// ReplicatedMasterRestart installs a crashed replica's programs on a
// fresh runtime, for the restarted role: master metadata rules, Paxos
// without leadership, the replay, the gateway. The cluster's Restart
// restores the durable tables afterwards; leadership, pending proposals
// and the datanode view are lost, exactly as a real failover loses them.
func ReplicatedMasterRestart(fresh *overlog.Runtime, self string, replicas []string, cfg Config, pcfg paxos.Config) error {
	if err := installMasterProgram(fresh, cfg); err != nil {
		return err
	}
	return rsm.InstallRestarted(fresh, self, replicas, pcfg, gatewayRules)
}

// RestartSpec returns the crash-restart spec for replica i.
func (rm *ReplicatedMaster) RestartSpec(i int) sim.NodeSpec {
	addr := rm.Replicas[i]
	return func(fresh *overlog.Runtime) ([]sim.Service, error) {
		if err := ReplicatedMasterRestart(fresh, addr, rm.Replicas, rm.cfg, rm.pcfg); err != nil {
			return nil, err
		}
		rm.masters[i].rt = fresh
		return nil, nil
	}
}

// Master returns the i-th replica's master view (inspection).
func (rm *ReplicatedMaster) Master(i int) *Master { return rm.masters[i] }

// LeaderIndex returns the index of the replica that currently believes
// it leads, or -1.
func (rm *ReplicatedMaster) LeaderIndex() int {
	for i, m := range rm.masters {
		if rm.cluster.Killed(m.Addr) {
			continue
		}
		if paxos.IsLeader(m.rt) {
			return i
		}
	}
	return -1
}

// DecidedCount returns the maximum decided-log length across replicas.
func (rm *ReplicatedMaster) DecidedCount() int {
	max := 0
	for _, m := range rm.masters {
		if n := m.rt.Table("decided").Len(); n > max {
			max = n
		}
	}
	return max
}

// AddMaster points an existing datanode's heartbeats at one more
// master replica (datanodes heartbeat every replica so a backup has a
// warm datanode view at failover).
func (d *DataNode) AddMaster(master string) error {
	d.masters = append(d.masters, master)
	return d.rt.InstallSource(fmt.Sprintf(`master("%s");`, master))
}

// NewReplicatedDataNode creates a datanode that heartbeats all replicas.
func NewReplicatedDataNode(c *sim.Cluster, addr string, rm *ReplicatedMaster, cfg Config) (*DataNode, error) {
	dn, err := NewDataNode(c, addr, rm.Replicas[0], cfg)
	if err != nil {
		return nil, err
	}
	for _, m := range rm.Replicas[1:] {
		if err := dn.AddMaster(m); err != nil {
			return nil, err
		}
	}
	return dn, nil
}

// NewReplicatedClient creates a client that speaks the gateway protocol
// and fails over through the replica list.
func NewReplicatedClient(c *sim.Cluster, addr string, cfg Config, rm *ReplicatedMaster) (*Client, error) {
	cl, err := NewClient(c, addr, cfg, rm.Replicas...)
	if err != nil {
		return nil, err
	}
	cl.UseGateway = true
	return cl, nil
}
