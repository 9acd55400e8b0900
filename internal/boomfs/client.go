package boomfs

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/overlog"
	"repro/internal/sim"
)

// ErrTimeout is returned when an operation outlives Config.OpTimeoutMS
// of simulated time.
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

// Client is a BOOM-FS client node. Synchronous methods drive the
// simulation until their response arrives; the Send/Poll pair supports
// asynchronous use by workload generators that multiplex many
// outstanding operations.
type Client struct {
	Addr    string
	cluster *sim.Cluster
	rt      *overlog.Runtime
	cfg     Config
	seq     int64
	// masters, in preference order; requests go to masters[0] and fail
	// over down the list on timeout.
	masters []string
	// Router, when set, chooses the master for a given path (used by
	// the hash-partitioned deployment).
	Router func(path string) string
	// UseGateway routes metadata ops through the replicated-master
	// gateway protocol (fsreq) instead of plain request events.
	UseGateway bool
	// RetryMS bounds one attempt against one master before failing over
	// to the next; 0 means use the whole operation timeout.
	RetryMS int64
	// preferred is the index of the last master that answered; retries
	// start there so clients stick to the new leader after a failover.
	preferred int
}

// NewClient creates a client node on the cluster.
func NewClient(c *sim.Cluster, addr string, cfg Config, masters ...string) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(masters) == 0 {
		return nil, errors.New("boomfs: client needs at least one master")
	}
	rt, err := c.AddNode(addr)
	if err != nil {
		return nil, err
	}
	if err := rt.InstallSource(ProtocolDecls); err != nil {
		return nil, err
	}
	if err := rt.InstallSource(ClientRules); err != nil {
		return nil, err
	}
	return &Client{Addr: addr, cluster: c, rt: rt, cfg: cfg, masters: masters}, nil
}

// Runtime exposes the client's runtime (tests).
func (cl *Client) Runtime() *overlog.Runtime { return cl.rt }

// Masters returns the configured master list.
func (cl *Client) Masters() []string { return append([]string(nil), cl.masters...) }

// SetMasters replaces the master preference list (failover tests).
func (cl *Client) SetMasters(masters ...string) { cl.masters = masters }

func (cl *Client) nextReqID() string {
	cl.seq++
	return fmt.Sprintf("%s-%d", cl.Addr, cl.seq)
}

func (cl *Client) masterFor(path string) string {
	if cl.Router != nil {
		return cl.Router(path)
	}
	return cl.masters[0]
}

// Send issues a metadata request asynchronously and returns its ReqId.
func (cl *Client) Send(op, path, arg string) string {
	return cl.SendTo(cl.masterFor(path), op, path, arg)
}

// SendTo issues a metadata request to a specific master.
func (cl *Client) SendTo(master, op, path, arg string) string {
	id := cl.nextReqID()
	cl.resend(master, id, op, path, arg)
	return id
}

// resend re-issues a request under an existing id (failover retries in
// gateway mode — the replay dedup makes same-id retries exactly-once).
func (cl *Client) resend(master, id, op, path, arg string) {
	table := "request"
	if cl.UseGateway {
		table = "fsreq"
	}
	cl.cluster.Inject(master, overlog.NewTuple(table,
		overlog.Addr(master), overlog.Str(id), overlog.Addr(cl.Addr),
		overlog.Str(op), overlog.Str(path), overlog.Str(arg)), 0)
}

// Poll checks for a response to a previously sent request.
func (cl *Client) Poll(reqID string) (*Response, bool) {
	tp, ok := cl.rt.Table("resp_log").LookupKey(overlog.NewTuple("resp_log",
		overlog.Str(reqID), overlog.Bool(false), overlog.List(), overlog.Str("")))
	if !ok {
		return nil, false
	}
	return &Response{
		Ok:     tp.Vals[1].AsBool(),
		Result: tp.Vals[2].AsList(),
		Err:    tp.Vals[3].AsString(),
	}, true
}

// call sends a request and runs the simulation until the response
// arrives. It cycles through the master list, bounding each attempt by
// RetryMS, until the overall operation timeout expires.
func (cl *Client) call(op, path, arg string) (*Response, error) {
	masters := cl.masters
	if cl.Router != nil {
		masters = []string{cl.masterFor(path)}
	}
	perTry := cl.RetryMS
	if perTry <= 0 {
		perTry = cl.cfg.OpTimeoutMS
	}
	overall := cl.cluster.Now() + cl.cfg.OpTimeoutMS
	tries := 0
	// In gateway mode every retry reuses one request id: replicas
	// replay a shared log with per-id dedup (internal/rsm seen_op), so
	// any replica's response is authoritative and a retry whose
	// predecessor actually committed cannot re-execute the write. In
	// direct mode each master executes independently, so a response is
	// only trusted for the attempt that asked — fresh id per try.
	var id string
	if cl.UseGateway {
		id = cl.nextReqID()
	}
	for cl.cluster.Now() < overall {
		idx := (cl.preferred + tries) % len(masters)
		m := masters[idx]
		tries++
		if cl.UseGateway {
			cl.resend(m, id, op, path, arg)
		} else {
			id = cl.SendTo(m, op, path, arg)
		}
		resp, err := cl.await(id, min(cl.cluster.Now()+perTry, overall))
		if err != nil {
			return nil, err
		}
		if resp != nil {
			if cl.Router == nil {
				cl.preferred = idx
			}
			return resp, nil
		}
		if tries >= len(masters) && cl.RetryMS <= 0 {
			break // no retry budget configured; one pass is enough
		}
	}
	return nil, fmt.Errorf("%w: %s %s (tried %d time(s))", ErrTimeout, op, path, tries)
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

// await runs the simulation until the response to id arrives (returned)
// or the clock passes deadline (nil).
func (cl *Client) await(id string, deadline int64) (*Response, error) {
	var resp *Response
	_, err := cl.cluster.RunUntil(func() bool {
		r, ok := cl.Poll(id)
		resp = r
		return ok
	}, deadline)
	return resp, err
}

// CallTo issues one synchronous metadata request to an explicit master
// (used by the partitioned deployment, which routes per-path itself).
func (cl *Client) CallTo(master, op, path, arg string) (*Response, error) {
	resp, err := cl.await(cl.SendTo(master, op, path, arg), cl.cluster.Now()+cl.cfg.OpTimeoutMS)
	if err == nil && resp == nil {
		err = fmt.Errorf("%w: %s %s @%s", ErrTimeout, op, path, master)
	}
	return resp, err
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
	if len(resp.Result) < 1 {
		return 0, nil, &OpError{Op: "addchunk", Path: path, Msg: "malformed response"}
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
	id := cl.nextReqID()
	rest := make([]overlog.Value, 0, len(locs)-1)
	for _, l := range locs[1:] {
		rest = append(rest, overlog.Addr(l))
	}
	cl.cluster.Inject(locs[0], overlog.NewTuple("dn_write",
		overlog.Addr(locs[0]), overlog.Str(id), overlog.Addr(cl.Addr),
		overlog.Int(chunkID), overlog.Str(data), overlog.List(rest...)), 0)
	want := len(locs)
	deadline := cl.cluster.Now() + cl.cfg.OpTimeoutMS
	acks := 0
	met, err := cl.cluster.RunUntil(func() bool {
		acks = len(cl.rt.Table("ack_log").Match([]int{0}, []overlog.Value{overlog.Str(id)}))
		return acks >= want
	}, deadline)
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
	for _, loc := range locs {
		id := cl.nextReqID()
		cl.cluster.Inject(loc, overlog.NewTuple("dn_read",
			overlog.Addr(loc), overlog.Str(id), overlog.Addr(cl.Addr), overlog.Int(chunkID)), 0)
		var data string
		var ok, got bool
		deadline := cl.cluster.Now() + cl.cfg.OpTimeoutMS/4
		if _, err := cl.cluster.RunUntil(func() bool {
			tp, found := cl.rt.Table("read_log").LookupKey(overlog.NewTuple("read_log",
				overlog.Str(id), overlog.Int(0), overlog.Str(""), overlog.Bool(false)))
			if found {
				data = tp.Vals[2].AsString()
				ok = tp.Vals[3].AsBool()
				got = true
			}
			return found
		}, deadline); err != nil {
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
