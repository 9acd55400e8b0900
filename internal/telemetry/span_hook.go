package telemetry

import (
	"fmt"

	"repro/internal/overlog"
)

// AttachTracer installs a step hook that stamps rule-fire and
// remote-send spans for every traced tuple a runtime step touches:
//
//   - one "rules" span per distinct inbound trace ID among the step's
//     consumed externals, parented to the node's active span for that
//     trace (the recv span over TCP, the net span under sim), which
//     then becomes the new active span;
//   - one "send" span per traced outbox envelope, parented to the
//     rules span and parked as a pending hop for the transport to
//     attach to the wire (WireMsg.SpanID) or hand across the sim.
//
// Timestamps come from clock when non-nil, else StepStats.NowMS. The
// driver chooses the base so every span on one node shares it: the
// TCP hosts (rtfs, boom mr-demo) pass their transport's clock to match
// the stamps the transport puts on recv/send-wire spans, while sim and
// the REPL pass nil and inherit the step clock — the hook itself
// never reads a wall clock, so the deterministic paths stay boomvet
// walltime-clean and bit-identical. Use alongside AttachRuntime, in
// either order: step hooks compose (Runtime.AddStepHook).
func AttachTracer(tr *Tracer, node string, rt *overlog.Runtime, clock func() int64) {
	if tr == nil {
		return
	}
	rt.AddStepHook(func(st overlog.StepStats) {
		now := st.NowMS
		if clock != nil {
			now = clock()
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
			id := tr.NextID(node)
			tr.Record(Span{
				TraceID:  trace,
				SpanID:   id,
				ParentID: tr.Active(node, trace),
				Node:     node,
				Kind:     "rules",
				Op:       tp.Table,
				StartMS:  now,
				EndMS:    now,
				Detail:   fmt.Sprintf("derived=%d", st.Derived),
			})
			tr.SetActive(node, trace, id)
		}
		for _, env := range st.Outbox {
			trace := TraceIDOf(env.Tuple)
			if trace == "" {
				continue
			}
			id := tr.NextID(node)
			tr.Record(Span{
				TraceID:  trace,
				SpanID:   id,
				ParentID: tr.Active(node, trace),
				Node:     node,
				Kind:     "send",
				Op:       env.Tuple.Table,
				StartMS:  now,
				EndMS:    now,
				Detail:   "to " + env.To,
			})
			tr.SetHop(node, trace, env.To, id)
		}
	})
}
