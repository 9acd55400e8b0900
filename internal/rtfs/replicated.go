// Replicated deployment: Paxos-coordinated master replicas and a
// failover client, on real sockets. Same programs as the simulated
// deployment (boomfs.InstallReplicatedMaster), same gateway protocol
// (fsreq → paxos_request → slot-ordered replay), driven by wall-clock
// nodes — what the live chaos harness tortures.
package rtfs

import (
	"fmt"
	"time"

	"repro/internal/boomfs"
	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/telemetry"
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
// out, preferring whichever replica answered last.
func NewReplicatedClient(addr string, masters []string, timeout, retry time.Duration) (*Client, error) {
	if len(masters) == 0 {
		return nil, fmt.Errorf("rtfs: replicated client needs masters")
	}
	cl, err := NewClient(addr, masters[0], timeout)
	if err != nil {
		return nil, err
	}
	cl.Masters = append([]string(nil), masters...)
	cl.UseGateway = true
	cl.Retry = retry
	return cl, nil
}

// callReplicated is the failover path of Client.call: ONE request ID
// for every attempt, per-attempt retry bound, rotation through the
// replica list starting at the last replica that answered. Reusing the
// id is what makes retries exactly-once — the gateway's replay dedup
// (seen_op) applies each id a single time no matter how many replicas
// proposed it, and since every replica replays the same log, any
// replica's response for the id is authoritative.
func (c *Client) callReplicated(op, path, arg string) (*boomfs.Response, error) {
	perTry := c.Retry
	if perTry <= 0 {
		perTry = c.Timeout
	}
	overall := time.Now().Add(c.Timeout)
	tries := 0
	id := c.nextReqID()
	finish := c.startOpSpan(id, op, path)
	for time.Now().Before(overall) {
		idx := (c.preferred + tries) % len(c.Masters)
		m := c.Masters[idx]
		tries++
		c.Journal.Record(telemetry.Event{Node: c.Addr, Kind: "op", Table: "fsreq",
			TraceID: id, Detail: fmt.Sprintf("%s %s try %d via %s", op, path, tries, m)})
		err := c.tcp.Send(overlog.Envelope{To: m, Tuple: overlog.NewTuple("fsreq",
			overlog.Addr(m), overlog.Str(id), overlog.Addr(c.Addr),
			overlog.Str(op), overlog.Str(path), overlog.Str(arg))})
		if err != nil {
			// Replica unreachable (fail-fast backoff): rotate without
			// burning the attempt's full retry window.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		deadline := time.Now().Add(perTry)
		if deadline.After(overall) {
			deadline = overall
		}
		for time.Now().Before(deadline) {
			if resp := c.pollResponse(id); resp != nil {
				c.preferred = idx
				finish(fmt.Sprintf("ok (%d tries)", tries))
				return resp, nil
			}
			time.Sleep(2 * time.Millisecond)
		}
		if tries >= len(c.Masters) && c.Retry <= 0 {
			break // no retry budget configured; one pass is enough
		}
	}
	finish(fmt.Sprintf("timeout (%d tries)", tries))
	return nil, fmt.Errorf("rtfs: %s %s: timeout after %v (%d tries)", op, path, c.Timeout, tries)
}

// pollResponse checks the client's resp_log for a request's answer.
func (c *Client) pollResponse(id string) *boomfs.Response {
	var resp *boomfs.Response
	c.node.Runtime(func(rt *overlog.Runtime) {
		tp, ok := rt.Table("resp_log").LookupKey(overlog.NewTuple("resp_log",
			overlog.Str(id), overlog.Bool(false), overlog.List(), overlog.Str("")))
		if ok {
			resp = &boomfs.Response{Ok: tp.Vals[1].AsBool(),
				Result: tp.Vals[2].AsList(), Err: tp.Vals[3].AsString()}
		}
	})
	return resp
}
