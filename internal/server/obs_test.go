package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"bristleblocks/internal/obs/flightrec"
	"bristleblocks/internal/obs/prom"
	"bristleblocks/internal/trace"
)

// failingSpec parses cleanly but fails in Pass 1: conditional assembly
// removes every element, the exact class of failure the flight recorder
// exists to replay.
const failingSpec = `chip doomed
microcode width 2
field LD 0 1
field RD 1 1
data width 4
bus A 0 -1
global PRODUCTION false
element acc registers count=1 ld="LD=1" rd="RD=1" if=PRODUCTION
`

// TestMetricsEndpoint: /metrics serves parseable Prometheus text format
// whose families cover the serving path AND the compiler core — the
// acceptance bar names at least one compiler-core gauge.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := postSpec(t, ts.URL+"/compile", specText(1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page, err := prom.Parse(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus exposition: %v\n%s", err, body)
	}

	if v, ok := page.Get("bbd_requests_total"); !ok || v < 1 {
		t.Fatalf("bbd_requests_total = %v,%v", v, ok)
	}
	// Compiler-core gauges carry real build counts after one cold compile.
	if v, ok := page.Get("bbd_core_cells_generated_total"); !ok || v <= 0 {
		t.Fatalf("bbd_core_cells_generated_total = %v,%v (want > 0)", v, ok)
	}
	if v, ok := page.Get("bbd_core_pitch_lambda"); !ok || v <= 0 {
		t.Fatalf("bbd_core_pitch_lambda = %v,%v (want > 0)", v, ok)
	}
	// Pass 3 routing families are live after one pads-enabled cold compile;
	// conflict/retry counters must at least be present (zero is a fine
	// value — it means no speculation was discarded).
	if v, ok := page.Get("bbd_route_nets_total"); !ok || v <= 0 {
		t.Fatalf("bbd_route_nets_total = %v,%v (want > 0)", v, ok)
	}
	if v, ok := page.Get("bbd_route_cells_expanded_total"); !ok || v <= 0 {
		t.Fatalf("bbd_route_cells_expanded_total = %v,%v (want > 0)", v, ok)
	}
	if v, ok := page.Get("bbd_route_frontier_peak"); !ok || v <= 0 {
		t.Fatalf("bbd_route_frontier_peak = %v,%v (want > 0)", v, ok)
	}
	for _, name := range []string{"bbd_route_conflicts_total", "bbd_route_retries_total"} {
		if _, ok := page.Get(name); !ok {
			t.Fatalf("%s missing from /metrics", name)
		}
	}
	if page.Types["bbd_request_latency_ms"] != "histogram" {
		t.Fatalf("request latency family is %q, want histogram", page.Types["bbd_request_latency_ms"])
	}
	// Per-pass rollup has all three passes.
	passes := map[string]bool{}
	for _, smp := range page.Samples {
		if smp.Name == "bbd_pass_seconds_total" {
			passes[smp.Labels["pass"]] = true
		}
	}
	for _, want := range []string{"core", "control", "pads"} {
		if !passes[want] {
			t.Fatalf("bbd_pass_seconds_total missing pass=%q (got %v)", want, passes)
		}
	}
}

// TestFlightRecorderReplaysFailedCompile: a compile that dies in Pass 1
// leaves a record at /debug/compiles whose detail view replays a complete
// span tree — root compile span, failed pass under it.
func TestFlightRecorderReplaysFailedCompile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(failingSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("failing compile status %d, want 422", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("no X-Request-Id header on the failed compile")
	}

	// The list view names the failure.
	lresp, err := http.Get(ts.URL + "/debug/compiles")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list []flightSummary
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatalf("/debug/compiles is not JSON: %v", err)
	}
	if len(list) != 1 {
		t.Fatalf("got %d flight records, want 1", len(list))
	}
	got := list[0]
	if got.ID != reqID || got.Outcome != flightrec.OutcomeError || got.Chip != "doomed" {
		t.Fatalf("flight summary = %+v", got)
	}
	if !strings.Contains(got.Error, "conditional assembly") {
		t.Fatalf("record error %q does not name the failure", got.Error)
	}
	if got.SpecHash == "" || got.Spans == 0 {
		t.Fatalf("record missing spec hash or spans: %+v", got)
	}

	// The detail view replays the span tree.
	dresp, err := http.Get(ts.URL + "/debug/compiles/" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var rec flightrec.Record
	if err := json.NewDecoder(dresp.Body).Decode(&rec); err != nil {
		t.Fatalf("/debug/compiles/{id} is not JSON: %v", err)
	}
	ids := map[int64]trace.Span{}
	for _, s := range rec.Spans {
		ids[s.ID] = s
	}
	var sawRoot, sawCore bool
	for _, s := range rec.Spans {
		if s.Parent != 0 {
			if _, ok := ids[s.Parent]; !ok {
				t.Fatalf("span %s has dangling parent %d", s.Name, s.Parent)
			}
		}
		switch s.Name {
		case "compile":
			sawRoot = true
			if s.Attrs["chip"] != "doomed" {
				t.Fatalf("compile span attrs = %v", s.Attrs)
			}
		case "pass.core":
			sawCore = true
			if parent := ids[s.Parent]; parent.Name != "compile" {
				t.Fatalf("pass.core parents under %q", parent.Name)
			}
		}
	}
	if !sawRoot || !sawCore {
		t.Fatalf("span tree incomplete (root=%v core=%v): %+v", sawRoot, sawCore, rec.Spans)
	}

	// Unknown IDs 404.
	nresp, err := http.Get(ts.URL + "/debug/compiles/nope")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown flight id = %d, want 404", nresp.StatusCode)
	}
}

// TestFlightRecorderSkipsCacheHits: a warm request is answered without a
// worker and without a flight record — the ring keeps compiles, not
// lookups.
func TestFlightRecorderSkipsCacheHits(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := specText(1)
	postSpec(t, ts.URL+"/compile", spec)
	postSpec(t, ts.URL+"/compile", spec)
	postSpec(t, ts.URL+"/compile", spec)
	if got := s.flight.Total(); got != 1 {
		t.Fatalf("flight recorded %d compiles, want 1 (cold only)", got)
	}
	recs := s.flight.Records()
	if len(recs) != 1 || recs[0].Outcome != flightrec.OutcomeOK {
		t.Fatalf("records = %+v", recs)
	}
	// The successful record's tree is complete too: compile → passes → gens.
	var gens int
	for _, sp := range recs[0].Spans {
		if strings.HasPrefix(sp.Name, "gen.") {
			gens++
		}
	}
	if gens == 0 {
		t.Fatalf("cold compile record has no gen spans: %+v", recs[0].Spans)
	}
}

// TestDebugVarsPercentiles: the expvar histogram JSON carries p50/p95/p99
// summary fields, and the request histogram counts shed/rejected
// requests (here: a bad spec), not only served ones.
func TestDebugVarsPercentiles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postSpec(t, ts.URL+"/compile", specText(1)) // served
	resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader("not a chip"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	vars := debugVars(t, ts.URL)
	h, ok := vars["latency_ms_request"].(map[string]any)
	if !ok {
		t.Fatalf("latency_ms_request is %T", vars["latency_ms_request"])
	}
	for _, key := range []string{"p50", "p95", "p99", "count", "sum_ms", "buckets"} {
		if _, ok := h[key]; !ok {
			t.Fatalf("histogram JSON missing %q: %v", key, h)
		}
	}
	if count := h["count"].(float64); count != 2 {
		t.Fatalf("request histogram count = %v, want 2 (served + rejected)", count)
	}
	if p99 := h["p99"].(float64); p99 < h["p50"].(float64) {
		t.Fatalf("p99 %v < p50 %v", h["p99"], h["p50"])
	}
}

// TestPprofOnAdminMux: the profiler answers on both the combined handler
// and the standalone admin handler.
func TestPprofOnAdminMux(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}
	// The standalone admin surface has the operator routes but no /compile.
	admin := s.AdminHandler()
	for path, want := range map[string]int{
		"/metrics":        http.StatusOK,
		"/debug/vars":     http.StatusOK,
		"/debug/compiles": http.StatusOK,
		"/debug/pprof/":   http.StatusOK,
		"/compile":        http.StatusNotFound,
	} {
		req, _ := http.NewRequest(http.MethodGet, path, nil)
		rw := &recordingWriter{header: http.Header{}}
		admin.ServeHTTP(rw, req)
		if rw.status != want {
			t.Fatalf("admin %s = %d, want %d", path, rw.status, want)
		}
	}
}

type recordingWriter struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (w *recordingWriter) Header() http.Header { return w.header }
func (w *recordingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *recordingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}

// TestStructuredLogsCarryRequestID: the daemon's log stream is slog with a
// request_id on every compile line, and a failing compile logs at Warn.
func TestStructuredLogsCarryRequestID(t *testing.T) {
	var buf bytes.Buffer
	var mu syncWriter
	mu.w = &buf
	logger := slog.New(slog.NewJSONHandler(&mu, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts := newTestServer(t, Config{Logger: logger})

	resp, cr := postSpec(t, ts.URL+"/compile", specText(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if cr.RequestID == "" {
		t.Fatal("response carries no request_id")
	}
	fresp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(failingSpec))
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()

	var sawCompiled, sawFailed bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		switch rec["msg"] {
		case "compiled":
			sawCompiled = true
			if rec["request_id"] != cr.RequestID {
				t.Fatalf("compiled log request_id = %v, want %v", rec["request_id"], cr.RequestID)
			}
		case "compile failed":
			sawFailed = true
			if rec["level"] != "WARN" || rec["request_id"] == "" {
				t.Fatalf("compile failed log = %v", rec)
			}
		}
	}
	if !sawCompiled || !sawFailed {
		t.Fatalf("log stream missing lines (compiled=%v failed=%v):\n%s", sawCompiled, sawFailed, buf.String())
	}
}

// TestBatchItemLogsCarryOneRequestID: a batch item logs under exactly one
// request_id, its own (the id of its flight record), plus batch_id naming
// the batch's X-Request-Id and its batch_index. Keys are read from the
// raw JSON line, so a duplicated attribute cannot hide behind a map.
func TestBatchItemLogsCarryOneRequestID(t *testing.T) {
	var buf bytes.Buffer
	var mu syncWriter
	mu.w = &buf
	logger := slog.New(slog.NewJSONHandler(&mu, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s, ts := newTestServer(t, Config{Logger: logger})

	body, err := json.Marshal(BatchRequest{Specs: []string{specText(1), specText(2)}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/compile/batch?nopads=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	batchID := resp.Header.Get("X-Request-Id")
	if resp.StatusCode != http.StatusOK || batchID == "" {
		t.Fatalf("batch status %d, X-Request-Id %q", resp.StatusCode, batchID)
	}

	recorded := map[string]bool{}
	for _, rec := range s.flight.Records() {
		recorded[rec.ID] = true
	}
	items := map[float64]string{} // batch_index -> request_id
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		attrs := logAttrs(t, line)
		if _, ok := attrs["batch_index"]; !ok {
			continue
		}
		ids := attrs["request_id"]
		if len(ids) != 1 {
			t.Fatalf("batch item line carries %d request_id attributes: %s", len(ids), line)
		}
		id, _ := ids[0].(string)
		if !recorded[id] {
			t.Fatalf("item request_id %q is no flight record's ID (recorded %v): %s", id, recorded, line)
		}
		if b := attrs["batch_id"]; len(b) != 1 || b[0] != batchID {
			t.Fatalf("batch_id %v, want [%s]: %s", b, batchID, line)
		}
		idx, _ := attrs["batch_index"][0].(float64)
		if prev, ok := items[idx]; ok && prev != id {
			t.Fatalf("batch_index %v logged under two request ids, %s and %s", idx, prev, id)
		}
		items[idx] = id
	}
	if len(items) != 2 || items[0] == items[1] {
		t.Fatalf("item log lines by batch_index: %v; want two items with distinct ids\n%s", items, buf.String())
	}
}

// logAttrs returns every top-level attribute of one JSON log line, each
// key with all the values it appeared with, in order.
func logAttrs(t *testing.T, line string) map[string][]any {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("log line %q is not a JSON object", line)
	}
	attrs := map[string][]any{}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		attrs[key.(string)] = append(attrs[key.(string)], v)
	}
	return attrs
}

// syncWriter serializes writes from concurrent handler goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestTraceChromeResponse: ?trace=chrome returns embeddable Chrome
// trace_event JSON.
func TestTraceChromeResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, cr := postSpec(t, ts.URL+"/compile?trace=chrome", specText(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(cr.TraceEvents) == 0 {
		t.Fatal("no trace_events in the response")
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(cr.TraceEvents, &file); err != nil {
		t.Fatalf("trace_events is not trace_event JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("empty traceEvents array")
	}
}
