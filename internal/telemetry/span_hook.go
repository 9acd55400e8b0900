package telemetry

import (
	"fmt"

	"repro/internal/overlog"
)

// The recorder: every span is built by the methods below, so both
// drivers record the same kinds under one rule. A traced emission
// records a send, then a recv at its receiver or a drop parented to
// the send; an untraced one records one event at its sender, a send,
// or a drop if it is lost there.

// AttachTracer installs RecordStep as a step hook on rt, stamped by
// clock when non-nil, else by the step's own clock (the sim, the REPL):
// a driver on its own clock (the live cluster, rtfs) passes it, so
// every span of a node shares one base. The hook never reads a wall
// clock itself. Step hooks compose with AttachRuntime's.
func AttachTracer(tr *Tracer, node string, rt *overlog.Runtime, clock func() int64) {
	if tr == nil {
		return
	}
	rt.AddStepHook(func(st overlog.StepStats) {
		now := st.NowMS
		if clock != nil {
			now = clock()
		}
		tr.RecordStep(node, st, now)
	})
}

// RecordStep records one runtime step of node at nowMS: a "rules" span
// per distinct trace among the consumed tuples, parented to the node's
// active span for it (the recv that delivered it, or the op that
// issued it) and then active itself, and a "send" span per traced
// outbox envelope, parked as a hop for Sent to take.
func (t *Tracer) RecordStep(node string, st overlog.StepStats, nowMS int64) {
	if t == nil {
		return
	}
	var seen map[string]bool
	for _, tp := range st.Consumed {
		trace := TraceIDOf(tp)
		if trace == "" || seen[trace] {
			continue
		}
		if seen == nil {
			seen = make(map[string]bool, 4)
		}
		seen[trace] = true
		id := t.traced(node, trace, "rules", tp.Table, nowMS, fmt.Sprintf("derived=%d", st.Derived))
		t.setActive(node, trace, id)
	}
	for _, env := range st.Outbox {
		trace := TraceIDOf(env.Tuple)
		if trace == "" {
			continue
		}
		id := t.traced(node, trace, "send", env.Tuple.Table, nowMS, "to "+env.To)
		t.setHop(node, trace, env.To, id)
	}
}

// traced records a span of trace on node, parented to the node's
// active span, and returns its new ID.
func (t *Tracer) traced(node, trace, kind, op string, nowMS int64, detail string) string {
	id := t.nextID(node)
	t.Record(Span{TraceID: trace, SpanID: id, ParentID: t.Active(node, trace), Node: node,
		Kind: kind, Op: op, StartMS: nowMS, EndMS: nowMS, Detail: detail})
	return id
}

// Sent records an emission of table from from to to at nowMS and
// returns the span its recv parents to ("" when untraced): the hop a
// step parked, or else a send recorded here (a client's request, a
// service injection, an untraced tuple). A non-empty lost records the
// emission as lost at its sender: a drop, parented to the send when
// traced.
func (t *Tracer) Sent(from, to, trace, table string, nowMS int64, lost string) string {
	if t == nil {
		return ""
	}
	if trace == "" {
		kind, detail := "send", "to "+to
		if lost != "" {
			kind, detail = "drop", lost
		}
		t.Event(from, kind, table, "", "", nowMS, detail)
		return ""
	}
	id := t.takeHop(from, trace, to)
	if id == "" {
		id = t.traced(from, trace, "send", table, nowMS, "to "+to)
	}
	if lost != "" {
		t.Event(from, "drop", table, trace, id, nowMS, lost)
	}
	return id
}

// Received records a traced emission arriving at to at atMS, parented
// to its send, and makes it to's active span for the trace. An
// untraced arrival records nothing: its send was its one event.
func (t *Tracer) Received(to, from, trace, parent, table string, atMS int64) {
	if t == nil || trace == "" {
		return
	}
	id := t.nextID(to)
	t.Record(Span{TraceID: trace, SpanID: id, ParentID: parent, Node: to,
		Kind: "recv", Op: table, StartMS: atMS, EndMS: atMS, Detail: "from " + from})
	t.setActive(to, trace, id)
}

// Event records a point event on node: an injected "fault", or the
// "drop" of a message whose send is recorded, parented to it.
func (t *Tracer) Event(node, kind, op, trace, parent string, atMS int64, detail string) {
	t.Record(Span{TraceID: trace, ParentID: parent, Node: node, Kind: kind, Op: op,
		StartMS: atMS, EndMS: atMS, Detail: detail})
}

// Op is one open client operation: the root span of its trace,
// recorded by End.
type Op struct {
	t  *Tracer
	sp Span
}

// StartOp opens the root span of a client operation on node, traced by
// its request id, and makes it active so the request's first send
// parents to it. A nil Tracer returns a nil Op, whose End is a no-op.
func (t *Tracer) StartOp(node, trace, op string, startMS int64) *Op {
	if t == nil {
		return nil
	}
	id := t.nextID(node)
	t.setActive(node, trace, id)
	return &Op{t: t, sp: Span{TraceID: trace, SpanID: id, Node: node, Kind: "op", Op: op, StartMS: startMS}}
}

// End records the operation's span, ending at endMS.
func (o *Op) End(endMS int64, detail string) {
	if o == nil {
		return
	}
	o.sp.EndMS, o.sp.Detail = endMS, detail
	o.t.Record(o.sp)
}
