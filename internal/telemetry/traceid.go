package telemetry

import (
	"sync"

	"repro/internal/overlog"
)

// BOOM protocols carry a request identifier as a tuple column (e.g.
// boomfs request/response tuples hold ReqId). Packages register which
// column of which table is the trace ID; transports then stamp ring
// events and wire frames without understanding the protocol.

var (
	traceMu   sync.RWMutex
	traceCols = map[string]int{}
)

// RegisterTraceColumn declares that column col of table holds the
// request-scoped trace ID. Safe to call from init funcs.
func RegisterTraceColumn(table string, col int) {
	traceMu.Lock()
	traceCols[table] = col
	traceMu.Unlock()
}

// TraceIDOf extracts the trace ID from a tuple, or "" when its table
// has no registered trace column.
func TraceIDOf(tp overlog.Tuple) string {
	traceMu.RLock()
	col, ok := traceCols[tp.Table]
	traceMu.RUnlock()
	if !ok || col < 0 || col >= len(tp.Vals) {
		return ""
	}
	v := tp.Vals[col]
	switch v.Kind() {
	case overlog.KindString, overlog.KindAddr:
		return v.AsString()
	}
	return v.String()
}
