package telemetry_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/overlog"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestStatusServerConcurrentWithCluster hammers the observability
// endpoints while a sim cluster with provenance capture and profiling
// keeps deriving on its own goroutine — run under -race this proves
// the status server's serialized-runtime access really serializes
// against the step loop, and that registry and event-ring reads are
// safe alongside their writers.
func TestStatusServerConcurrentWithCluster(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(1024)
	c := sim.NewCluster(
		sim.WithClusterSeed(3),
		sim.WithTelemetry(reg),
		sim.WithTracer(tracer),
		sim.WithProvenance(64))

	// Two nodes ping tuples back and forth so both keep deriving.
	prog := func(peer string) string {
		return fmt.Sprintf(`
			table seen(K: int) keys(0);
			event ping(P: addr, K: int);
			s1 seen(K) :- ping(_, K);
			s2 ping(@P, K + 1) :- ping(_, K), K < 400, P := %q;
		`, peer)
	}
	rtA := c.MustAddNode("a")
	rtB := c.MustAddNode("b")
	if err := rtA.InstallSource(prog("b")); err != nil {
		t.Fatal(err)
	}
	if err := rtB.InstallSource(prog("a")); err != nil {
		t.Fatal(err)
	}
	rtA.SetProfiling(true)
	rtB.SetProfiling(true)
	c.Inject("a", overlog.NewTuple("ping", overlog.Addr("a"), overlog.Int(0)), 1)
	c.Inject("b", overlog.NewTuple("ping", overlog.Addr("b"), overlog.Int(1)), 1)

	// The cluster steps on its own goroutine; WithRuntime shares the
	// mutex, exactly how the TCP transport serializes runtime access.
	var mu sync.Mutex
	srv, err := telemetry.Serve("127.0.0.1:0", telemetry.Source{
		Role: "sim", Addr: "a", Registry: reg, Tracer: tracer,
		WithRuntime: func(fn func(*overlog.Runtime)) {
			mu.Lock()
			defer mu.Unlock()
			fn(rtA)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stepDone := make(chan error, 1)
	go func() {
		for {
			mu.Lock()
			more, err := c.Step()
			mu.Unlock()
			if err != nil || !more {
				stepDone <- err
				return
			}
		}
	}()

	paths := []string{
		"/metrics",
		"/debug/prov",
		"/debug/prov?table=seen",
		"/debug/prov?q=seen(_)",
		"/debug/profile",
		"/debug/tables?table=seen&limit=5&offset=2",
		"/debug/trace?limit=10",
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(srv.URL() + paths[(w+i)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	if err := <-stepDone; err != nil {
		t.Fatal(err)
	}
	if n := rtA.Table("seen").Len() + rtB.Table("seen").Len(); n < 100 {
		t.Fatalf("cluster derived only %d seen tuples while serving", n)
	}
}

// TestJournalWrapConcurrentPagination forces the event ring to wrap
// many times over while /debug/trace pages through it. Each writer
// stamps its events with its own strictly sequential offset; every
// page the server returns is carved from one locked ring snapshot,
// so within a page each writer's offsets must be strictly increasing
// AND gap-free — a duplicated offset means the ring re-served a slot,
// a gap means wraparound lost an event that newer retained events
// should have displaced contiguously.
func TestJournalWrapConcurrentPagination(t *testing.T) {
	const (
		writers   = 4
		perWriter = 2000
		capacity  = 256
	)
	tracer := telemetry.NewTracer(capacity)
	srv, err := telemetry.Serve("127.0.0.1:0", telemetry.Source{
		Role: "sim", Addr: "n1", Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tracer.Record(telemetry.Span{
					StartMS: int64(i), EndMS: int64(i), Node: fmt.Sprintf("w%d", w),
					Kind: "op", Op: "hammer", Detail: fmt.Sprintf("%d", i),
				})
			}
		}(w)
	}

	type page struct {
		Total    int64            `json:"total"`
		Buffered int64            `json:"buffered"`
		Evicted  int64            `json:"evicted"`
		Spans    []telemetry.Span `json:"spans"`
	}
	checkPage := func(evs []telemetry.Span) {
		last := map[string]int{}
		for _, ev := range evs {
			var off int
			if _, err := fmt.Sscanf(ev.Detail, "%d", &off); err != nil {
				t.Errorf("unparseable offset %q", ev.Detail)
				return
			}
			if prev, ok := last[ev.Node]; ok {
				if off == prev {
					t.Errorf("%s: duplicate offset %d in one page", ev.Node, off)
				}
				if off != prev+1 {
					t.Errorf("%s: lost offsets %d..%d within one page", ev.Node, prev+1, off-1)
				}
			}
			last[ev.Node] = off
		}
	}
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for i := 0; i < 200; i++ {
			// Walk a few pages backwards through the ring, like a client
			// following /debug/trace pagination mid-wrap.
			for _, q := range []string{"?limit=64", "?limit=64&offset=64", "?limit=64&offset=128"} {
				resp, err := http.Get(srv.URL() + "/debug/trace" + q)
				if err != nil {
					t.Error(err)
					return
				}
				var p page
				if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
					t.Error(err)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				if p.Evicted != p.Total-p.Buffered {
					t.Errorf("evicted %d != total %d - buffered %d", p.Evicted, p.Total, p.Buffered)
				}
				checkPage(p.Spans)
			}
		}
	}()
	wg.Wait()
	<-readDone

	if got := tracer.Total(); got != writers*perWriter {
		t.Fatalf("ring total = %d, want %d (no lost records)", got, writers*perWriter)
	}
	evs := tracer.Spans()
	if len(evs) != capacity {
		t.Fatalf("retained %d events, want full ring of %d", len(evs), capacity)
	}
	checkPage(evs)
}
