package boomfs

import (
	"repro/internal/overlog"
	"repro/internal/telemetry"
)

// The FS protocol carries a request-scoped identifier (ReqId) through
// every tuple of one logical operation; registering the columns here
// lets transports stamp ring events and wire frames with the trace
// ID without understanding the protocol — one FS op becomes traceable
// across client, master and datanodes.
func init() {
	for table, col := range map[string]int{
		"request": 1, "response": 1, "fsreq": 1,
		// Liveness relations trace by node address, so a datanode's
		// heartbeats and the membership feed's dn_alive (MasterFeed) and
		// master rows follow one trace per node across the cluster.
		"dn_alive": 1, "master": 0,
		"dn_write": 1, "dn_write_ack": 1, "dn_read": 1, "dn_read_resp": 1,
		"dn_store":   0,
		"fs_newfile": 0, "req_pc": 0, "req_rm_ok": 0, "req_mv_ok": 0,
		"fs_addchunk": 0, "do_ls": 0,
		"resp_log": 0, "ack_log": 0, "read_log": 0,
	} {
		telemetry.RegisterTraceColumn(table, col)
	}
}

// MasterTables are the catalog relations worth a live size gauge.
var MasterTables = []string{"file", "fqpath", "fchunk", "datanode", "hb_chunk"}

// InstrumentMaster attaches watch-based FS metrics to a master
// runtime: requests by operation, responses by outcome, and
// replication/GC command counts. Call before the node starts stepping.
// Table-size gauges are registered separately (GaugeTables) because
// they need scrape-time access serialized by the driver.
func InstrumentMaster(reg *telemetry.Registry, node string, rt *overlog.Runtime) error {
	for _, t := range []string{"request", "repl_cmd", "gc_cmd", "dn_alive"} {
		if err := rt.AddWatch(t, "i"); err != nil {
			return err
		}
	}
	// Responses are derived with a remote @Client specifier, so they
	// never land in a master table — watch the send instead.
	if err := rt.AddWatch("response", "s"); err != nil {
		return err
	}
	lbl := func(name string, kv ...string) string {
		if node != "" {
			kv = append(kv, "node", node)
		}
		return telemetry.L(name, kv...)
	}
	replCmds := reg.Counter(lbl("boomfs_repl_cmds_total"), "re-replication commands issued")
	gcCmds := reg.Counter(lbl("boomfs_gc_cmds_total"), "chunk GC commands issued")
	heartbeats := reg.Counter(lbl("boomfs_heartbeats_total"), "datanode heartbeats received")
	rt.RegisterWatcher(func(ev overlog.WatchEvent) {
		if !ev.Insert {
			return
		}
		switch ev.Tuple.Table {
		case "request":
			op := ev.Tuple.Vals[3].AsString()
			reg.Counter(lbl("boomfs_requests_total", "op", op), "metadata requests by operation").Inc()
		case "response":
			outcome := "ok"
			if !ev.Tuple.Vals[2].AsBool() {
				outcome = "error"
			}
			reg.Counter(lbl("boomfs_responses_total", "outcome", outcome), "metadata responses by outcome").Inc()
		case "repl_cmd":
			replCmds.Inc()
		case "gc_cmd":
			gcCmds.Inc()
		case "dn_alive":
			heartbeats.Inc()
		}
	})
	return nil
}

// InstrumentDataNode attaches chunk data-plane counters to a datanode
// runtime. Call before the node starts stepping.
func InstrumentDataNode(reg *telemetry.Registry, node string, rt *overlog.Runtime) error {
	return telemetry.CountInserts(reg, node, rt,
		"boomfs_chunk_ops_total", "chunk data-plane operations by kind",
		"dn_write", "dn_read", "dn_replicate", "dn_store")
}
