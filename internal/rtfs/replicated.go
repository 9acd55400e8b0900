// Replicated deployment: Paxos-coordinated master replicas and a
// failover client, on real sockets. Same programs as the simulated
// deployment (boomfs.InstallReplicatedMaster), same gateway protocol
// (fsreq → paxos_request → slot-ordered replay), driven by wall-clock
// nodes — what the live chaos harness tortures.
package rtfs

import (
	"time"

	"repro/internal/boomfs"
	"repro/internal/overlog"
	"repro/internal/paxos"
)

// StartReplicatedMaster serves one replica of a Paxos-replicated
// master group at addr. replicas is the full group (addr included).
func StartReplicatedMaster(addr string, replicas []string, cfg boomfs.Config, pcfg paxos.Config) (*Server, error) {
	rt := overlog.NewRuntime(addr)
	if err := boomfs.InstallReplicatedMaster(rt, addr, replicas, cfg, pcfg); err != nil {
		return nil, err
	}
	return serve(rt, addr, "master", nil)
}

// NewReplicatedClient starts a client that speaks the gateway protocol
// (fsreq) and fails over through the master replica list: each attempt
// gets retry on one replica, rotating until the overall timeout runs
// out, preferring whichever replica answered last, under one request
// id (link.Request.OneID).
func NewReplicatedClient(addr string, masters []string, timeout, retry time.Duration) (*Client, error) {
	cl, err := newClient(addr, timeout, masters...)
	if err != nil {
		return nil, err
	}
	cl.UseGateway = true
	cl.RetryMS = retry.Milliseconds()
	return cl, nil
}
