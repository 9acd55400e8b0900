package telemetry

import (
	"testing"

	"repro/internal/overlog"
)

func TestTraceColumns(t *testing.T) {
	RegisterTraceColumn("tc_req", 1)
	tp := overlog.NewTuple("tc_req", overlog.Addr("m:1"), overlog.Str("req-7"), overlog.Int(3))
	if id := TraceIDOf(tp); id != "req-7" {
		t.Fatalf("trace id: %q", id)
	}
	// Unregistered table → no ID.
	if id := TraceIDOf(overlog.NewTuple("tc_other", overlog.Str("x"))); id != "" {
		t.Fatalf("unregistered: %q", id)
	}
	// Column out of range → no ID, no panic.
	if id := TraceIDOf(overlog.NewTuple("tc_req", overlog.Str("only"))); id != "" {
		t.Fatalf("short tuple: %q", id)
	}
	// Non-string columns stringify.
	RegisterTraceColumn("tc_int", 0)
	if id := TraceIDOf(overlog.NewTuple("tc_int", overlog.Int(42))); id == "" {
		t.Fatal("int trace id should stringify")
	}
}
