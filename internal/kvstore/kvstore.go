// Package kvstore is a replicated key-value store built entirely from
// this repository's declarative substrates: the Overlog Paxos log
// orders writes, internal/rsm replays each one once, and seven rules
// submit writes, apply them to the table and answer reads from any
// replica's table. It exists to show the paper's larger point — once
// the coordination substrate is rules, new replicated services are
// small compositions — and as a second, simpler consumer of
// internal/paxos beyond the replicated file-system master.
package kvstore

import (
	"embed"
	"errors"
	"fmt"

	"repro/internal/link"
	"repro/internal/overlog"
	"repro/internal/overlog/analysis"
	"repro/internal/paxos"
	"repro/internal/rsm"
	"repro/internal/sim"
)

// Files holds the package's Overlog programs, one per .olg file.
//
//go:embed *.olg
var Files embed.FS

var (
	//go:embed kvstore.olg
	rules string
	//go:embed client.olg
	clientRules string
)

// LintUnits declares the analysis unit for cmd/boomlint: replicas
// (Paxos, the replay rules and kvstore.olg) together with a client node, so
// the kv_resp protocol resolves across roles.
func LintUnits() []analysis.Unit {
	return []analysis.Unit{{
		Name: "kvstore",
		Groups: map[string][]string{
			"replica": append(rsm.LintSources(), rules),
			"client":  {clientRules},
		},
	}}
}

// Group is a set of KV replicas on a simulated cluster.
type Group struct {
	Replicas []string
	cluster  *sim.Cluster
}

// NewGroup creates n replicas named prefix:0..n-1.
func NewGroup(c *sim.Cluster, prefix string, n int, pcfg paxos.Config) (*Group, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		addrs = append(addrs, fmt.Sprintf("%s:%d", prefix, i))
	}
	for _, addr := range addrs {
		rt, err := c.AddNode(addr)
		if err != nil {
			return nil, err
		}
		if err := rsm.Install(rt, addr, addrs, pcfg, rules); err != nil {
			return nil, err
		}
	}
	return &Group{Replicas: addrs, cluster: c}, nil
}

// ReplicaValue reads a key directly from one replica's table (test
// oracle).
func (g *Group) ReplicaValue(i int, key string) (string, bool) {
	rt := g.cluster.Node(g.Replicas[i])
	tp, ok := rt.Table("kv").LookupKey(overlog.NewTuple("kv",
		overlog.Str(key), overlog.Str("")))
	if !ok {
		return "", false
	}
	return tp.Vals[1].AsString(), true
}

// ErrTimeout is returned when an operation exceeds its budget.
var ErrTimeout = errors.New("kvstore: operation timed out")

// Client issues synchronous operations against the group, retrying
// down the replica list.
type Client struct {
	Addr  string
	group *Group
	rt    *overlog.Runtime
	calls link.Caller
	// TimeoutMS bounds each operation; RetryMS bounds one attempt, and
	// 0 gives each replica the whole timeout, in one pass.
	TimeoutMS int64
	RetryMS   int64
}

// NewClient creates a client node.
func NewClient(c *sim.Cluster, addr string, g *Group) (*Client, error) {
	rt, err := c.AddNode(addr)
	if err != nil {
		return nil, err
	}
	if err := rt.InstallSource(clientRules); err != nil {
		return nil, err
	}
	return &Client{Addr: addr, group: g, rt: rt, calls: link.Caller{Link: link.Sim{C: c, RT: rt}, Addr: addr},
		TimeoutMS: 60_000, RetryMS: 3_000}, nil
}

// Runtime exposes the client's runtime, so load generators can watch
// the kvr response table instead of polling.
func (cl *Client) Runtime() *overlog.Runtime { return cl.rt }

// SendPut issues a put asynchronously to the preferred replica and
// returns its request id; the response (if any) materializes as a kvr
// row on the client node. No retries, no failover — open-loop load
// generation wants the raw one-shot outcome.
func (cl *Client) SendPut(key, value string) string {
	id := cl.calls.NextID()
	to := cl.group.Replicas[cl.calls.Preferred()%len(cl.group.Replicas)]
	_ = cl.calls.Link.Send(to, cl.request(to, id, "kv_put", key, value))
	return id
}

// request encodes op(@replica, id, client, args...).
func (cl *Client) request(replica, id, op string, args ...string) overlog.Tuple {
	vals := []overlog.Value{overlog.Addr(replica), overlog.Str(id), overlog.Addr(cl.Addr)}
	for _, a := range args {
		vals = append(vals, overlog.Str(a))
	}
	return overlog.NewTuple(op, vals...)
}

// call sends an operation down the replica list under one request id
// (link.Caller.Call) and returns the response's Found and V.
func (cl *Client) call(op string, args ...string) (bool, string, error) {
	var resp overlog.Tuple
	_, ok, err := cl.calls.Call(link.Request{
		Targets: cl.group.Replicas, TimeoutMS: cl.TimeoutMS, RetryMS: cl.RetryMS, OneID: true,
		Tuple: func(to, id string) overlog.Tuple { return cl.request(to, id, op, args...) },
		Done: func(rt *overlog.Runtime, id string) bool {
			var found bool
			resp, found = rt.Table("kvr").LookupKey(overlog.NewTuple("kvr",
				overlog.Str(id), overlog.Bool(false), overlog.Str("")))
			return found
		},
		Op: op,
	})
	if err != nil {
		return false, "", err
	}
	if !ok {
		return false, "", ErrTimeout
	}
	return resp.Vals[1].AsBool(), resp.Vals[2].AsString(), nil
}

// Put writes a key.
func (cl *Client) Put(key, value string) error {
	_, _, err := cl.call("kv_put", key, value)
	return err
}

// Delete removes a key.
func (cl *Client) Delete(key string) error {
	_, _, err := cl.call("kv_del", key)
	return err
}

// Get reads a key (from whichever replica answers; reads are local, so
// a lagging replica may serve slightly stale data — same contract as
// the replicated FS master).
func (cl *Client) Get(key string) (string, bool, error) {
	found, val, err := cl.call("kv_get", key)
	if err != nil {
		return "", false, err
	}
	return val, found, nil
}
