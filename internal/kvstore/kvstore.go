// Package kvstore is a replicated key-value store built entirely from
// this repository's declarative substrates: the Overlog Paxos log
// orders writes, ten gateway rules apply them, and reads are served
// from any replica's table. It exists to show the paper's larger
// point — once the coordination substrate is rules, new replicated
// services are small compositions — and as a second, simpler consumer
// of internal/paxos beyond the replicated file-system master.
package kvstore

import (
	"errors"
	"fmt"

	"repro/internal/overlog"
	"repro/internal/overlog/analysis"
	"repro/internal/paxos"
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

	// ...and every decided command applies to the table exactly once, in
	// slot order, one slot per step (the cursor boomfs/replicated.go
	// g3-g5 uses). Joining kv against the whole decided log instead
	// would let an old del delete a newer put of the same key, and let a
	// learner that receives slots out of order keep the older write.
	table applied(K: string, S: int) keys(0);
	applied("a", 0);
	event apply(S: int, Cmd: list);
	g5 apply(S, Cmd) :- decided(S, Cmd), applied("a", S);
	g6 next applied("a", S + 1) :- apply(S, _);

	a1 kv(K, V) :- apply(_, Cmd), tostr(nth(Cmd, 2)) == "put",
	        K := tostr(nth(Cmd, 3)), V := tostr(nth(Cmd, 4));
	a2 delete kv(K, V) :- apply(_, Cmd), tostr(nth(Cmd, 2)) == "del",
	        K := tostr(nth(Cmd, 3)), kv(K, V);
	a3 kv_resp(@Cl, Id, true, "") :- apply(_, Cmd),
	        Id := tostr(nth(Cmd, 0)), Cl := toaddr(nth(Cmd, 1));
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
// (Paxos plus the gateway rules) together with a client node, so the
// kv_resp protocol resolves across roles.
func LintUnits() []analysis.Unit {
	return []analysis.Unit{{
		Name: "kvstore",
		Groups: map[string][]string{
			"replica": append(paxos.LintSources(), Rules),
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
		if err := paxos.Install(rt, addr, addrs, pcfg); err != nil {
			return nil, err
		}
		if err := rt.InstallSource(Rules); err != nil {
			return nil, err
		}
	}
	return &Group{Replicas: addrs, cluster: c}, nil
}

// Get reads a key directly from one replica's table (test oracle).
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
	replica := cl.group.Replicas[cl.preferred%len(cl.group.Replicas)]
	id := cl.nextID()
	cl.cluster.Inject(replica, overlog.NewTuple("kv_put", overlog.Addr(replica),
		overlog.Str(id), overlog.Addr(cl.Addr), overlog.Str(key), overlog.Str(value)), 0)
	return id
}

// call sends op tuples (a function of replica and id) until a response
// arrives or the timeout passes.
func (cl *Client) call(mk func(replica, id string) overlog.Tuple) (bool, string, error) {
	overall := cl.cluster.Now() + cl.TimeoutMS
	tries := 0
	for cl.cluster.Now() < overall {
		idx := (cl.preferred + tries) % len(cl.group.Replicas)
		replica := cl.group.Replicas[idx]
		tries++
		id := cl.nextID()
		cl.cluster.Inject(replica, mk(replica, id), 0)
		deadline := cl.cluster.Now() + cl.RetryMS
		if deadline > overall {
			deadline = overall
		}
		var found bool
		var val string
		got := false
		if _, err := cl.cluster.RunUntil(func() bool {
			tp, ok := cl.rt.Table("kvr").LookupKey(overlog.NewTuple("kvr",
				overlog.Str(id), overlog.Bool(false), overlog.Str("")))
			if ok {
				found = tp.Vals[1].AsBool()
				val = tp.Vals[2].AsString()
				got = true
			}
			return ok
		}, deadline); err != nil {
			return false, "", err
		}
		if got {
			cl.preferred = idx
			return found, val, nil
		}
	}
	return false, "", ErrTimeout
}

// Put writes a key.
func (cl *Client) Put(key, value string) error {
	_, _, err := cl.call(func(replica, id string) overlog.Tuple {
		return overlog.NewTuple("kv_put", overlog.Addr(replica), overlog.Str(id),
			overlog.Addr(cl.Addr), overlog.Str(key), overlog.Str(value))
	})
	return err
}

// Delete removes a key.
func (cl *Client) Delete(key string) error {
	_, _, err := cl.call(func(replica, id string) overlog.Tuple {
		return overlog.NewTuple("kv_del", overlog.Addr(replica), overlog.Str(id),
			overlog.Addr(cl.Addr), overlog.Str(key))
	})
	return err
}

// Get reads a key (from whichever replica answers; reads are local, so
// a lagging replica may serve slightly stale data — same contract as
// the replicated FS master).
func (cl *Client) Get(key string) (string, bool, error) {
	found, val, err := cl.call(func(replica, id string) overlog.Tuple {
		return overlog.NewTuple("kv_get", overlog.Addr(replica), overlog.Str(id),
			overlog.Addr(cl.Addr), overlog.Str(key))
	})
	if err != nil {
		return "", false, err
	}
	return val, found, nil
}
