package loadgen

import (
	"sort"

	"repro/internal/overlog"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// pctl returns the p-th percentile (nearest-rank) of xs, which it
// sorts in place. Zero for an empty slice.
func pctl(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	idx := int(float64(len(xs))*p/100+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}

// StartSLOSweep arms a repeating virtual-clock timer that turns the
// generator's completion window into sys::metric tuples delivered to
// node `to`: "<name>_p99" (windowed client-observed p99, ms) and
// "<name>_count" (completions in the window). The Node column is
// `src` — the identity the metric describes. Installed SLO rules on
// the receiving runtime (chaos.InstallSLOMonitor) then judge each
// window as it lands. Everything runs off the virtual clock; the
// chain is armed for the life of the cluster and costs one timer per
// window.
func StartSLOSweep(c *sim.Cluster, g *Generator, to, src, name string, windowMS int64) {
	if windowMS <= 0 {
		windowMS = 1000
	}
	var arm func(at int64)
	arm = func(at int64) {
		c.At(at, func() error {
			w := g.TakeWindow()
			if len(w) > 0 {
				p99 := pctl(w, 99)
				c.Inject(to, overlog.NewTuple("sys::metric",
					overlog.Str(src), overlog.Str(name+"_p99"),
					overlog.Int(at-windowMS), overlog.Int(p99)), 0)
				c.Inject(to, overlog.NewTuple("sys::metric",
					overlog.Str(src), overlog.Str(name+"_count"),
					overlog.Int(at-windowMS), overlog.Int(int64(len(w)))), 0)
			}
			arm(at + windowMS)
			return nil
		})
	}
	arm(c.Now() + windowMS)
}

// LatencyBreakdown decomposes completed-request latency into its
// queue, serve, and network components using the span trees a traced
// run records, on either driver: per trace, network is the summed gap
// from each send to the recv it parents (the wire), queue the summed
// gap from each recv to the rules span that consumed it (the M/D/1
// service queueing the sim models, or a node's inbox over TCP), and
// serve the remainder of the root op span (client polling, response
// assembly).
type LatencyBreakdown struct {
	Requests    int   `json:"requests"`
	TotalP99MS  int64 `json:"total_p99_ms"`
	NetP99MS    int64 `json:"net_p99_ms"`
	QueueP99MS  int64 `json:"queue_p99_ms"`
	ServeP99MS  int64 `json:"serve_p99_ms"`
	TotalMeanMS int64 `json:"total_mean_ms"`
	NetMeanMS   int64 `json:"net_mean_ms"`
	QueueMeanMS int64 `json:"queue_mean_ms"`
	ServeMeanMS int64 `json:"serve_mean_ms"`
}

func mean(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return sum / int64(len(xs))
}

// BreakdownSpans aggregates the per-request decomposition across
// every trace in the tracer that has a root "op" span.
func BreakdownSpans(tr *telemetry.Tracer) LatencyBreakdown {
	spans := tr.Spans()
	byTrace := make(map[string][]telemetry.Span)
	ids := make([]string, 0, 64)
	for _, sp := range spans {
		if _, ok := byTrace[sp.TraceID]; !ok {
			ids = append(ids, sp.TraceID)
		}
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	sort.Strings(ids)
	var totals, nets, queues, serves []int64
	for _, id := range ids {
		ts := byTrace[id]
		var op *telemetry.Span
		byID := make(map[string]telemetry.Span, len(ts))
		for i := range ts {
			if ts[i].Kind == "op" && op == nil {
				op = &ts[i]
			}
			byID[ts[i].SpanID] = ts[i]
		}
		if op == nil {
			continue
		}
		total := op.EndMS - op.StartMS
		var net, queue int64
		for _, sp := range ts {
			p, ok := byID[sp.ParentID]
			switch {
			case !ok || sp.StartMS <= p.StartMS:
			case sp.Kind == "recv" && p.Kind == "send":
				net += sp.StartMS - p.StartMS
			case sp.Kind == "rules" && p.Kind == "recv":
				queue += sp.StartMS - p.StartMS
			}
		}
		serve := total - net - queue
		if serve < 0 {
			serve = 0
		}
		totals = append(totals, total)
		nets = append(nets, net)
		queues = append(queues, queue)
		serves = append(serves, serve)
	}
	return LatencyBreakdown{
		Requests:    len(totals),
		TotalP99MS:  pctl(totals, 99),
		NetP99MS:    pctl(nets, 99),
		QueueP99MS:  pctl(queues, 99),
		ServeP99MS:  pctl(serves, 99),
		TotalMeanMS: mean(totals),
		NetMeanMS:   mean(nets),
		QueueMeanMS: mean(queues),
		ServeMeanMS: mean(serves),
	}
}
