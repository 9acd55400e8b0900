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
	"errors"
	"fmt"

	"repro/internal/overlog"
	"repro/internal/overlog/analysis"
	"repro/internal/paxos"
	"repro/internal/rsm"
	"repro/internal/sim"
)

// Rules is the whole service.
const Rules = `
	program kvstore;

	// Clients inject operations; the Go API reads kv directly (test
	// oracle) and polls kvr on the client node.
	//lint:feed kv_put kv_del kv_get
	//lint:export kv

	table kv(K: string, V: string) keys(0);

	event kv_put(To: addr, ReqId: string, Client: addr, K: string, V: string);
	event kv_del(To: addr, ReqId: string, Client: addr, K: string);
	event kv_get(To: addr, ReqId: string, Client: addr, K: string);
	event kv_resp(To: addr, ReqId: string, Found: bool, V: string);

	// Writes go through the Paxos log...
	g1 paxos_request(@Me, Id, Cmd) :- kv_put(@Me, Id, Cl, K, V),
	        Cmd := [Id, Cl, "put", K, V];
	g2 paxos_request(@Me, Id, Cmd) :- kv_del(@Me, Id, Cl, K),
	        Cmd := [Id, Cl, "del", K, ""];

	// ...reads are answered locally...
	g3 kv_resp(@Cl, Id, true, V) :- kv_get(@Me, Id, Cl, K), kv(K, V);
	g4 kv_resp(@Cl, Id, false, "") :- kv_get(@Me, Id, Cl, K), notin kv(K, _);

	// ...and every command internal/rsm applies writes the table, in
	// slot order, once per request id. Every slot the cursor passes
	// acknowledges its id, so a retry of an applied put is answered
	// without writing again.
	a1 kv(K, V) :- apply(_, _, _, Cmd), tostr(nth(Cmd, 2)) == "put",
	        K := tostr(nth(Cmd, 3)), V := tostr(nth(Cmd, 4));
	a2 delete kv(K, V) :- apply(_, _, _, Cmd), tostr(nth(Cmd, 2)) == "del",
	        K := tostr(nth(Cmd, 3)), kv(K, V);
	a3 kv_resp(@Cl, Id, true, "") :- done(Id, Cl);
`

// clientRules log responses for the Go API to poll.
const clientRules = `
	program kvclient;
	//lint:export kvr
	event kv_resp(To: addr, ReqId: string, Found: bool, V: string);
	table kvr(ReqId: string, Found: bool, V: string) keys(0);
	c1 kvr(Id, F, V) :- kv_resp(@Me, Id, F, V);
`

// LintUnits declares the analysis unit for cmd/boomlint: replicas
// (Paxos, the replay rules and Rules) together with a client node, so
// the kv_resp protocol resolves across roles.
func LintUnits() []analysis.Unit {
	return []analysis.Unit{{
		Name: "kvstore",
		Groups: map[string][]string{
			"replica": append(rsm.LintSources(), Rules),
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
		if err := rsm.Install(rt, addr, addrs, pcfg, Rules); err != nil {
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
	Addr    string
	group   *Group
	cluster *sim.Cluster
	rt      *overlog.Runtime
	seq     int64
	// TimeoutMS bounds each operation; RetryMS bounds one attempt.
	TimeoutMS int64
	RetryMS   int64
	preferred int
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
	return &Client{Addr: addr, group: g, cluster: c, rt: rt,
		TimeoutMS: 60_000, RetryMS: 3_000}, nil
}

func (cl *Client) nextID() string {
	cl.seq++
	return fmt.Sprintf("%s-%d", cl.Addr, cl.seq)
}

// Runtime exposes the client's runtime, so load generators can watch
// the kvr response table instead of polling.
func (cl *Client) Runtime() *overlog.Runtime { return cl.rt }

// SendPut issues a put asynchronously to the preferred replica and
// returns its request id; the response (if any) materializes as a kvr
// row on the client node. No retries, no failover — open-loop load
// generation wants the raw one-shot outcome.
func (cl *Client) SendPut(key, value string) string {
	id := cl.nextID()
	cl.send(cl.group.Replicas[cl.preferred%len(cl.group.Replicas)], id, "kv_put", key, value)
	return id
}

// send injects op(@replica, id, client, args...) at a replica.
func (cl *Client) send(replica, id, op string, args ...string) {
	vals := []overlog.Value{overlog.Addr(replica), overlog.Str(id), overlog.Addr(cl.Addr)}
	for _, a := range args {
		vals = append(vals, overlog.Str(a))
	}
	cl.cluster.Inject(replica, overlog.NewTuple(op, vals...), 0)
}

// call sends an operation down the replica list until a response
// arrives or the timeout passes, and returns the response's Found and
// V. Every attempt carries the same request id: the replicas replay
// one log with per-id dedup (internal/rsm), so a retry whose
// predecessor committed is acknowledged, not applied again, and any
// replica's response for the id is authoritative.
func (cl *Client) call(op string, args ...string) (bool, string, error) {
	overall := cl.cluster.Now() + cl.TimeoutMS
	id := cl.nextID()
	for tries := 0; cl.cluster.Now() < overall; tries++ {
		idx := (cl.preferred + tries) % len(cl.group.Replicas)
		cl.send(cl.group.Replicas[idx], id, op, args...)
		var resp overlog.Tuple
		got, err := cl.cluster.RunUntil(func() bool {
			var ok bool
			resp, ok = cl.rt.Table("kvr").LookupKey(overlog.NewTuple("kvr",
				overlog.Str(id), overlog.Bool(false), overlog.Str("")))
			return ok
		}, min(cl.cluster.Now()+cl.RetryMS, overall))
		if err != nil {
			return false, "", err
		}
		if got {
			cl.preferred = idx
			return resp.Vals[1].AsBool(), resp.Vals[2].AsString(), nil
		}
	}
	return false, "", ErrTimeout
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
