package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/overlog"
	"repro/internal/telemetry"
)

// trickleWriter delivers at most n bytes per Write — the partial-write
// behaviour a congested socket exhibits, which the gob stream (and the
// bufio layer above it) must tolerate without corrupting frames.
type trickleWriter struct {
	w io.Writer
	n int
}

func (tw *trickleWriter) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > tw.n {
			chunk = chunk[:tw.n]
		}
		n, err := tw.w.Write(chunk)
		total += n
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}

func mkBatch(msgs int) wireBatch {
	var b wireBatch
	for i := 0; i < msgs; i++ {
		b.Msgs = append(b.Msgs, WireMsg{
			To:      "127.0.0.1:9999",
			Table:   "msg",
			Vals:    []overlog.Value{overlog.Addr("127.0.0.1:9999"), overlog.Int(int64(i))},
			TraceID: fmt.Sprintf("trace-%d", i),
		})
	}
	return b
}

// TestWireBatchPartialWriteShortRead round-trips batched frames
// through a 3-bytes-per-write writer and a one-byte-at-a-time reader:
// frame order, values, and every per-frame TraceID must survive.
func TestWireBatchPartialWriteShortRead(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&trickleWriter{w: &buf, n: 3})
	want := []wireBatch{mkBatch(5), mkBatch(1), mkBatch(7)}
	for i := range want {
		if err := enc.Encode(&want[i]); err != nil {
			t.Fatalf("encode batch %d: %v", i, err)
		}
	}

	dec := gob.NewDecoder(iotest.OneByteReader(&buf))
	for i := range want {
		var got wireBatch
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode batch %d: %v", i, err)
		}
		if len(got.Msgs) != len(want[i].Msgs) {
			t.Fatalf("batch %d: %d msgs, want %d", i, len(got.Msgs), len(want[i].Msgs))
		}
		for j, m := range got.Msgs {
			w := want[i].Msgs[j]
			if m.TraceID != w.TraceID || m.Table != w.Table || m.To != w.To {
				t.Fatalf("batch %d msg %d: %+v != %+v", i, j, m, w)
			}
			if len(m.Vals) != len(w.Vals) || !m.Vals[1].Equal(w.Vals[1]) {
				t.Fatalf("batch %d msg %d vals: %v != %v", i, j, m.Vals, w.Vals)
			}
		}
	}
	var extra wireBatch
	if err := dec.Decode(&extra); err != io.EOF {
		t.Fatalf("expected clean EOF after last batch, got %v", err)
	}
}

// TestWireBatchTruncatedStream: a frame cut off mid-stream must error
// out of the decoder, never yield a half-parsed batch.
func TestWireBatchTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wireBatch{Msgs: mkBatch(4).Msgs}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{1, len(data) / 2, len(data) - 1} {
		dec := gob.NewDecoder(bytes.NewReader(data[:cut]))
		var got wireBatch
		if err := dec.Decode(&got); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded cleanly: %+v", cut, len(data), got)
		}
	}
}

// TestBatchedTraceIDPropagation forces real coalescing (a slow link
// delays the first flush so later sends pile up behind it) and checks
// every frame's TraceID reaches the receiver's ring individually —
// batching must not smear or drop per-frame trace identity.
func TestBatchedTraceIDPropagation(t *testing.T) {
	telemetry.RegisterTraceColumn("msg", 1)
	defer telemetry.RegisterTraceColumn("msg", -1)

	addrA, addrB := freeAddr(t), freeAddr(t)
	nodeA, tcpA, regA, _ := mkFailNode(t, addrA)
	defer func() { nodeA.Stop(); tcpA.Close() }()
	nodeB, tcpB, _, jB := mkFailNode(t, addrB)
	defer func() { nodeB.Stop(); tcpB.Close() }()

	faults := NewFaults(1)
	faults.SlowLink(addrA, addrB, 80*time.Millisecond)
	tcpA.SetFaults(faults)

	const frames = 10
	for i := int64(0); i < frames; i++ {
		if err := tcpA.Send(overlog.Envelope{To: addrB,
			Tuple: overlog.NewTuple("msg", overlog.Addr(addrB), overlog.Int(100+i))}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitGot(t, nodeB, frames, "batched delivery")

	if flushes := regA.Get("boom_transport_flushes_total"); flushes >= frames {
		t.Fatalf("no coalescing happened: %g flushes for %d frames", flushes, frames)
	}
	if sent := regA.Get("boom_transport_sent_total"); sent != frames {
		t.Fatalf("sent: %g, want %d", sent, frames)
	}
	for i := int64(0); i < frames; i++ {
		id := fmt.Sprintf("%d", 100+i)
		evs := jB.ByTrace(id)
		if len(evs) == 0 || evs[0].Kind != "recv" {
			t.Fatalf("trace %s missing from receiver ring: %+v", id, evs)
		}
	}
}
