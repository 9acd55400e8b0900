package boomfs

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/link"
	"repro/internal/overlog"
	"repro/internal/sim"
)

// ErrTimeout is returned when an operation outlives Config.OpTimeoutMS
// on its link's clock.
var ErrTimeout = errors.New("boomfs: operation timed out")

// OpError is a structured failure reported by the master.
type OpError struct {
	Op   string
	Path string
	Msg  string
}

func (e *OpError) Error() string {
	return fmt.Sprintf("boomfs: %s %s: %s", e.Op, e.Path, e.Msg)
}

// Response is a decoded master response.
type Response struct {
	Ok     bool
	Result []overlog.Value
	Err    string
}

// Client is a BOOM-FS client node. It reaches its masters over a
// link.Link: the simulator's (NewClient) or TCP's (internal/rtfs).
// Synchronous methods wait on the link until their response arrives;
// the SendTo/Poll pair supports asynchronous use by workload
// generators that multiplex many outstanding operations.
type Client struct {
	Addr string
	// UseGateway routes metadata ops through the replicated-master
	// gateway protocol (fsreq) instead of plain request events.
	UseGateway bool
	// RetryMS bounds one attempt against one master before failing over
	// to the next; 0 means use the whole operation timeout.
	RetryMS int64
	rt      *overlog.Runtime
	cfg     Config
	// masters, in preference order; requests go to masters[0] and fail
	// over down the list on timeout.
	masters []string
	calls   link.Caller
}

// NewClient creates a client node on the simulated cluster.
func NewClient(c *sim.Cluster, addr string, cfg Config, masters ...string) (*Client, error) {
	rt, err := c.AddNode(addr)
	if err != nil {
		return nil, err
	}
	return NewClientOn(link.Sim{C: c, RT: rt}, rt, cfg, masters...)
}

// NewClientOn installs the client rules on rt, the runtime l waits on,
// and returns a client that reaches its masters over l.
func NewClientOn(l link.Link, rt *overlog.Runtime, cfg Config, masters ...string) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(masters) == 0 {
		return nil, errors.New("boomfs: client needs at least one master")
	}
	if err := rt.InstallSource(ProtocolDecls); err != nil {
		return nil, err
	}
	if err := rt.InstallSource(ClientRules); err != nil {
		return nil, err
	}
	addr := rt.LocalAddr()
	return &Client{Addr: addr, rt: rt, cfg: cfg, masters: masters,
		calls: link.Caller{Link: l, Addr: addr}}, nil
}

// Runtime exposes the client's runtime (tests, and watches on a
// simulated client; over TCP the node loop owns it).
func (cl *Client) Runtime() *overlog.Runtime { return cl.rt }

// request encodes a metadata request to master under id.
func (cl *Client) request(master, id, op, path, arg string) overlog.Tuple {
	table := "request"
	if cl.UseGateway {
		table = "fsreq"
	}
	return overlog.NewTuple(table, overlog.Addr(master), overlog.Str(id), overlog.Addr(cl.Addr),
		overlog.Str(op), overlog.Str(path), overlog.Str(arg))
}

// SendTo issues a metadata request to a specific master without
// waiting, and returns its ReqId.
func (cl *Client) SendTo(master, op, path, arg string) string {
	id := cl.calls.NextID()
	_ = cl.calls.Link.Send(master, cl.request(master, id, op, path, arg))
	return id
}

// Poll checks for a response to a previously sent request.
func (cl *Client) Poll(reqID string) (*Response, bool) {
	var resp *Response
	ok, _ := cl.calls.Link.Await(func(rt *overlog.Runtime) bool {
		resp = response(rt, reqID)
		return resp != nil
	}, math.MinInt64)
	return resp, ok
}

// response reads id's answer from the client's resp_log, or nil.
func response(rt *overlog.Runtime, id string) *Response {
	tp, ok := rt.Table("resp_log").LookupKey(overlog.NewTuple("resp_log",
		overlog.Str(id), overlog.Bool(false), overlog.List(), overlog.Str("")))
	if !ok {
		return nil
	}
	return &Response{Ok: tp.Vals[1].AsBool(), Result: tp.Vals[2].AsList(), Err: tp.Vals[3].AsString()}
}

// call sends a metadata request down the master list until a response
// arrives or the operation timeout expires (link.Caller.Call).
func (cl *Client) call(op, path, arg string) (*Response, error) {
	return cl.callOn(cl.masters, cl.RetryMS, op, path, arg)
}

// CallTo issues one synchronous metadata request to an explicit master
// (used by the partitioned deployment, which routes per-path itself).
func (cl *Client) CallTo(master, op, path, arg string) (*Response, error) {
	return cl.callOn([]string{master}, 0, op, path, arg)
}

func (cl *Client) callOn(masters []string, retryMS int64, op, path, arg string) (*Response, error) {
	var resp *Response
	tries, ok, err := cl.calls.Call(link.Request{
		Targets: masters, TimeoutMS: cl.cfg.OpTimeoutMS, RetryMS: retryMS,
		// In direct mode each master executes independently: a fresh id
		// per try (see link.Request.OneID).
		OneID: cl.UseGateway,
		Tuple: func(to, id string) overlog.Tuple { return cl.request(to, id, op, path, arg) },
		Done: func(rt *overlog.Runtime, id string) bool {
			resp = response(rt, id)
			return resp != nil
		},
		Op: op, Path: path,
	})
	if err == nil && !ok {
		err = fmt.Errorf("%w: %s %s (tried %d time(s))", ErrTimeout, op, path, tries)
	}
	return resp, err
}

func (cl *Client) callOK(op, path, arg string) (*Response, error) {
	resp, err := cl.call(op, path, arg)
	if err != nil {
		return nil, err
	}
	if !resp.Ok {
		return resp, &OpError{Op: op, Path: path, Msg: resp.Err}
	}
	return resp, nil
}

// Mkdir creates a directory; the parent must exist.
func (cl *Client) Mkdir(path string) error {
	_, err := cl.callOK("mkdir", path, "")
	return err
}

// Create creates an empty file; the parent must exist.
func (cl *Client) Create(path string) error {
	_, err := cl.callOK("create", path, "")
	return err
}

// Exists reports whether a path resolves.
func (cl *Client) Exists(path string) (bool, error) {
	resp, err := cl.call("exists", path, "")
	if err != nil {
		return false, err
	}
	return resp.Ok, nil
}

// Ls lists the names in a directory, sorted.
func (cl *Client) Ls(path string) ([]string, error) {
	return cl.callStrings("ls", path, "")
}

// callStrings is callOK for a response that is a list of strings.
func (cl *Client) callStrings(op, path, arg string) ([]string, error) {
	resp, err := cl.callOK(op, path, arg)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(resp.Result))
	for i, v := range resp.Result {
		out[i] = v.AsString()
	}
	return out, nil
}

// Rm removes a file or empty directory.
func (cl *Client) Rm(path string) error {
	_, err := cl.callOK("rm", path, "")
	return err
}

// Mv renames a file or empty directory.
func (cl *Client) Mv(oldPath, newPath string) error {
	_, err := cl.callOK("mv", oldPath, newPath)
	return err
}

// AddChunk allocates a chunk for a file, returning the chunk id and
// the datanodes chosen to hold it.
func (cl *Client) AddChunk(path string) (int64, []string, error) {
	resp, err := cl.callOK("addchunk", path, "")
	if err != nil {
		return 0, nil, err
	}
	if len(resp.Result) < 2 {
		return 0, nil, &OpError{Op: "addchunk", Path: path, Msg: "no locations"}
	}
	id := resp.Result[0].AsInt()
	locs := make([]string, 0, len(resp.Result)-1)
	for _, v := range resp.Result[1:] {
		locs = append(locs, v.AsString())
	}
	return id, locs, nil
}

// Chunks returns a file's chunk ids in index order.
func (cl *Client) Chunks(path string) ([]int64, error) {
	resp, err := cl.callOK("chunks", path, "")
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, len(resp.Result))
	for _, pair := range resp.Result {
		l := pair.AsList()
		if len(l) != 2 {
			return nil, &OpError{Op: "chunks", Path: path, Msg: "malformed pair"}
		}
		out = append(out, l[1].AsInt())
	}
	return out, nil
}

// ChunkLocs returns the datanodes believed to hold a chunk.
func (cl *Client) ChunkLocs(chunkID int64) ([]string, error) {
	return cl.callStrings("chunklocs", "", fmt.Sprintf("%d", chunkID))
}

// WriteChunk pushes data into the replica pipeline and waits until all
// replicas acknowledge.
func (cl *Client) WriteChunk(chunkID int64, locs []string, data string) error {
	if len(locs) == 0 {
		return &OpError{Op: "writechunk", Msg: "no locations"}
	}
	id := cl.calls.NextID()
	rest := make([]overlog.Value, 0, len(locs)-1)
	for _, l := range locs[1:] {
		rest = append(rest, overlog.Addr(l))
	}
	l := cl.calls.Link
	if err := l.Send(locs[0], overlog.NewTuple("dn_write",
		overlog.Addr(locs[0]), overlog.Str(id), overlog.Addr(cl.Addr),
		overlog.Int(chunkID), overlog.Str(data), overlog.List(rest...))); err != nil {
		return err
	}
	want := len(locs)
	acks := 0
	met, err := l.Await(func(rt *overlog.Runtime) bool {
		acks = len(rt.Table("ack_log").Match([]int{0}, []overlog.Value{overlog.Str(id)}))
		return acks >= want
	}, l.Now()+cl.cfg.OpTimeoutMS)
	if err != nil {
		return err
	}
	if !met {
		return fmt.Errorf("%w: writechunk %d (%d/%d acks)", ErrTimeout, chunkID, acks, want)
	}
	return nil
}

// ReadChunk fetches chunk bytes, trying each location in turn.
func (cl *Client) ReadChunk(chunkID int64, locs []string) (string, error) {
	l := cl.calls.Link
	for _, loc := range locs {
		id := cl.calls.NextID()
		if err := l.Send(loc, overlog.NewTuple("dn_read",
			overlog.Addr(loc), overlog.Str(id), overlog.Addr(cl.Addr), overlog.Int(chunkID))); err != nil {
			continue
		}
		var data string
		var ok bool
		got, err := l.Await(func(rt *overlog.Runtime) bool {
			tp, found := rt.Table("read_log").LookupKey(overlog.NewTuple("read_log",
				overlog.Str(id), overlog.Int(0), overlog.Str(""), overlog.Bool(false)))
			if found {
				data, ok = tp.Vals[2].AsString(), tp.Vals[3].AsBool()
			}
			return found
		}, l.Now()+cl.cfg.OpTimeoutMS/4)
		if err != nil {
			return "", err
		}
		if got && ok {
			return data, nil
		}
	}
	return "", fmt.Errorf("boomfs: readchunk %d: no replica answered", chunkID)
}

// WriteFile creates path and writes data, split into chunks.
func (cl *Client) WriteFile(path, data string) error {
	if err := cl.Create(path); err != nil {
		return err
	}
	for off := 0; off < len(data); off += cl.cfg.ChunkSize {
		end := off + cl.cfg.ChunkSize
		if end > len(data) {
			end = len(data)
		}
		piece := data[off:end]
		id, locs, err := cl.AddChunk(path)
		if err != nil {
			return err
		}
		if err := cl.WriteChunk(id, locs, piece); err != nil {
			return err
		}
	}
	return nil
}

// ReadFile fetches a whole file's contents.
func (cl *Client) ReadFile(path string) (string, error) {
	chunks, err := cl.Chunks(path)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, cid := range chunks {
		locs, err := cl.ChunkLocs(cid)
		if err != nil {
			return "", err
		}
		data, err := cl.ReadChunk(cid, locs)
		if err != nil {
			return "", err
		}
		b.WriteString(data)
	}
	return b.String(), nil
}
