// Command boom-trace inspects distributed traces: the span trees that
// traced tuples grow as they cross nodes (see telemetry.Span). It
// attaches to one or more live status servers and merges their
// /debug/trace views — over TCP every node records into its own event
// ring, so a cross-node trace only assembles once the pieces are
// pulled together — or replays a span dump from a file.
//
// Usage:
//
//	boom-trace -status host:7070,host:7071           # list traces
//	boom-trace -status host:7070,host:7071 -id req-3 # waterfall one trace
//	boom-trace -file spans.json [-id req-3]          # replay a dump
//
// The file form accepts either a bare JSON span array or any object
// with a "spans" field — including a saved /debug/trace response.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/telemetry"
)

func main() {
	status := flag.String("status", "", "comma-separated status server addresses (host:port or URL) to attach to")
	file := flag.String("file", "", "replay spans from a JSON dump instead of attaching")
	id := flag.String("id", "", "trace ID to render; empty lists traces")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
	flag.Parse()

	var spans []telemetry.Span
	var err error
	switch {
	case *file != "":
		spans, err = loadFile(*file)
	case *status != "":
		spans, err = fetchAll(strings.Split(*status, ","), *id, *timeout)
	default:
		fmt.Fprintln(os.Stderr, "boom-trace: need -status or -file")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "boom-trace: %v\n", err)
		os.Exit(1)
	}

	if *id == "" {
		listTraces(spans)
		return
	}
	var got []telemetry.Span
	for _, sp := range spans {
		if sp.TraceID == *id {
			got = append(got, sp)
		}
	}
	if len(got) == 0 {
		fmt.Fprintf(os.Stderr, "boom-trace: no spans for trace %q\n", *id)
		os.Exit(1)
	}
	telemetry.SortSpans(got)
	fmt.Printf("trace %s: %d span(s) across %s\n", *id, len(got),
		strings.Join(telemetry.TraceNodes(got), ", "))
	fmt.Print(telemetry.Waterfall(telemetry.AssembleTrace(got)))
}

// listTraces prints one summary line per distinct trace; untraced
// ring entries belong to none.
func listTraces(spans []telemetry.Span) {
	traces := telemetry.SummarizeTraces(spans)
	fmt.Printf("%-28s %6s %6s %8s\n", "trace", "spans", "nodes", "extent")
	for _, ts := range traces {
		fmt.Printf("%-28s %6d %6d %6dms\n", ts.TraceID, ts.Spans, len(ts.Nodes), ts.EndMS-ts.StartMS)
	}
	fmt.Printf("%d trace(s); -id <trace> for the waterfall.\n", len(traces))
}

// spanDump is the permissive file/endpoint shape: anything carrying a
// "spans" array, e.g. a saved /debug/trace response.
type spanDump struct {
	Spans []telemetry.Span `json:"spans"`
}

func loadFile(path string) ([]telemetry.Span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bare []telemetry.Span
	if err := json.Unmarshal(data, &bare); err == nil {
		return bare, nil
	}
	var dump spanDump
	if err := json.Unmarshal(data, &dump); err != nil {
		return nil, fmt.Errorf("%s: neither a span array nor a {\"spans\": ...} object: %w", path, err)
	}
	return dump.Spans, nil
}

// fetchAll pulls spans from every status server and merges them,
// dropping duplicates by span ID (a span records on exactly one node,
// but an address list may name the same server twice).
func fetchAll(addrs []string, id string, timeout time.Duration) ([]telemetry.Span, error) {
	client := &http.Client{Timeout: timeout}
	seen := make(map[string]bool)
	var out []telemetry.Span
	var firstErr error
	ok := 0
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		spans, err := fetchOne(client, addr, id)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", addr, err)
			}
			fmt.Fprintf(os.Stderr, "boom-trace: %s: %v\n", addr, err)
			continue
		}
		ok++
		for _, sp := range spans {
			if sp.SpanID != "" && seen[sp.SpanID] {
				continue
			}
			seen[sp.SpanID] = true
			out = append(out, sp)
		}
	}
	if ok == 0 {
		return nil, firstErr
	}
	return out, nil
}

// fetchOne reads one server's spans. With a trace ID it uses the
// filtered view; without, it pages backwards through the raw ring,
// whose traced entries listTraces groups by trace.
func fetchOne(client *http.Client, addr, id string) ([]telemetry.Span, error) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if id != "" {
		var resp spanDump
		if err := getJSON(client, base+"/debug/trace?id="+id, &resp); err != nil {
			return nil, err
		}
		return resp.Spans, nil
	}
	const limit = 1000
	var out []telemetry.Span
	for offset := 0; ; offset += limit {
		var page spanDump
		url := fmt.Sprintf("%s/debug/trace?limit=%d&offset=%d", base, limit, offset)
		if err := getJSON(client, url, &page); err != nil {
			return nil, err
		}
		out = append(out, page.Spans...)
		if len(page.Spans) < limit {
			return out, nil
		}
	}
}

func getJSON(client *http.Client, url string, v interface{}) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
