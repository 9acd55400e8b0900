// Package boomfs implements BOOM-FS: the HDFS-workalike distributed
// file system from "BOOM Analytics" (EuroSys 2010) whose master
// (NameNode) metadata logic is written in Overlog rules rather than
// imperative code. The data plane — chunk bytes on datanodes and the
// client write pipeline — is imperative Go glue, exactly the
// declarative/imperative split the paper used (Overlog for protocol and
// metadata, Java for byte-shovelling).
//
// The system comprises:
//
//   - a master whose entire metadata catalog (files, paths, chunks,
//     datanode inventory, placement, re-replication) is Overlog
//     (master.olg; there is no Go logic on the master at all);
//   - datanodes that heartbeat chunk inventories to the master via
//     Overlog rules and store chunk bytes in a Go chunk store;
//   - a client library providing the familiar FS API on top of the
//     request/response tuple protocol.
package boomfs

import (
	"embed"
	"slices"

	"repro/internal/membership"
	"repro/internal/overlog"
	"repro/internal/overlog/analysis"
	"repro/internal/rsm"
)

// Files holds the package's Overlog programs, one per .olg file.
//
//go:embed *.olg
var Files embed.FS

// The protocol every master, client and datanode installs, the client
// rules, and the rules that feed the membership unit's view to a master
// and to a datanode.
var (
	//go:embed protocol.olg
	ProtocolDecls string
	//go:embed client.olg
	ClientRules string
	//go:embed feed_master.olg
	MasterFeed string
	//go:embed feed_datanode.olg
	DataNodeFeed string

	//go:embed master.olg
	masterRules string
	//go:embed gc.olg
	gcRules string
	//go:embed datanode.olg
	dataNodeRules string
	//go:embed gateway.olg
	gatewayRules string
)

// Params maps c onto the params each of the package's files declares,
// by file name.
func (c Config) Params() map[string][]overlog.Param {
	return map[string][]overlog.Param{
		"master.olg": {
			{Name: "repl", Value: overlog.Int(int64(c.ReplicationFactor))},
			{Name: "dn_timeout_ms", Value: overlog.Int(c.DNTimeoutMS)},
			{Name: "fd_ms", Value: overlog.Int(c.FDTickMS)},
		},
		"gc.olg": {
			{Name: "gc_ms", Value: overlog.Int(c.GCTickMS)},
			{Name: "gc_grace_ms", Value: overlog.Int(c.GCGraceMS)},
		},
		"datanode.olg": {{Name: "hb_ms", Value: overlog.Int(c.HeartbeatMS)}},
	}
}

// LintUnits declares the analysis units for cmd/boomlint: the plain
// deployment (master, datanode, client roles), the same with membership
// feeding liveness, and the availability revision where master replicas
// gateway metadata writes through the Overlog Paxos log, without and
// with membership. Params keep their declared defaults.
func LintUnits() []analysis.Unit {
	master := []string{ProtocolDecls, masterRules, gcRules}
	dn := []string{ProtocolDecls, dataNodeRules}
	client := []string{ProtocolDecls, ClientRules}
	withMembership := func(srcs []string, feed string) []string {
		return append(append(slices.Clip(srcs), membership.LintSources()...), feed)
	}
	replica := append(append(slices.Clip(master), rsm.LintSources()...), gatewayRules)
	return []analysis.Unit{{
		Name:   "boomfs",
		Groups: map[string][]string{"master": master, "datanode": dn, "client": client},
	}, {
		Name: "boomfs-membership",
		Groups: map[string][]string{
			"master":   withMembership(master, MasterFeed),
			"datanode": withMembership(dn, DataNodeFeed),
			"client":   client,
		},
	}, {
		Name:   "boomfs-replicated",
		Groups: map[string][]string{"replica": replica, "datanode": dn, "client": client},
	}, {
		Name: "boomfs-replicated-membership",
		Groups: map[string][]string{
			"replica":  withMembership(replica, MasterFeed),
			"datanode": withMembership(dn, DataNodeFeed),
			"client":   client,
		},
	}}
}
