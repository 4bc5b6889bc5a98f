package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bristleblocks/internal/obs/flightrec"
	"bristleblocks/internal/obs/prom"
	"bristleblocks/internal/obs/slo"
	"bristleblocks/internal/trace"
)

// postSpecHeader is postSpec with extra request headers.
func postSpecHeader(t *testing.T, url, spec string, hdr map[string]string) (*http.Response, *CompileResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr CompileResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, &cr
}

// TestTraceparentRoundTrip is the propagation satellite's live check: a
// request carrying a W3C traceparent compiles under the caller's trace
// id, and a malformed header is ignored (fresh trace) rather than
// failing the request.
func TestTraceparentRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := specText(1)
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	tp := "00-" + traceID + "-00f067aa0ba902b7-01"

	resp, cr := postSpecHeader(t, ts.URL+"/compile", spec, map[string]string{"traceparent": tp})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if cr.TraceID != traceID {
		t.Fatalf("TraceID = %q, want the inbound %q", cr.TraceID, traceID)
	}

	// Cache hit: the trace id still comes from this request's header.
	resp, cr = postSpecHeader(t, ts.URL+"/compile", spec, map[string]string{"traceparent": tp})
	if resp.StatusCode != http.StatusOK || !cr.Cached {
		t.Fatalf("expected cache hit, status=%d cached=%v", resp.StatusCode, cr.Cached)
	}
	if cr.TraceID != traceID {
		t.Fatalf("cached TraceID = %q, want %q", cr.TraceID, traceID)
	}

	// Malformed headers are ignored: fresh 32-hex trace id, request fine.
	for _, bad := range []string{
		"garbage",
		"00-" + traceID + "-00f067aa0ba902b7-01-extra",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-" + strings.ToUpper(traceID) + "-00f067aa0ba902b7-01",
	} {
		resp, cr := postSpecHeader(t, ts.URL+"/compile", spec, map[string]string{"traceparent": bad})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traceparent %q broke the request: status %d", bad, resp.StatusCode)
		}
		if len(cr.TraceID) != 32 || cr.TraceID == traceID {
			t.Fatalf("traceparent %q: TraceID = %q, want a fresh 32-hex id", bad, cr.TraceID)
		}
	}
}

// TestFlightRecordTelemetryShape is the flight-recorder satellite: a cold
// compile's record carries the trace id and the per-pass allocation
// attribution, in the documented JSON shape.
func TestFlightRecordTelemetryShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	tp := "00-" + traceID + "-00f067aa0ba902b7-01"
	resp, cr := postSpecHeader(t, ts.URL+"/compile", specText(1), map[string]string{"traceparent": tp})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	get, err := http.Get(ts.URL + "/debug/compiles/" + cr.RequestID)
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var rec struct {
		ID      string `json:"id"`
		TraceID string `json:"trace_id"`
		Allocs  *struct {
			Core    struct{ Objects, Bytes uint64 } `json:"core"`
			Control struct{ Objects, Bytes uint64 } `json:"control"`
			Pads    struct{ Objects, Bytes uint64 } `json:"pads"`
			Reps    struct{ Objects, Bytes uint64 } `json:"reps"`
			Total   struct{ Objects, Bytes uint64 } `json:"total"`
		} `json:"allocs"`
	}
	if err := json.NewDecoder(get.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != cr.RequestID {
		t.Fatalf("record id = %q, want %q", rec.ID, cr.RequestID)
	}
	if rec.TraceID != traceID {
		t.Fatalf("record trace_id = %q, want %q", rec.TraceID, traceID)
	}
	if rec.Allocs == nil {
		t.Fatal("record has no allocs attribution")
	}
	if rec.Allocs.Total.Objects == 0 || rec.Allocs.Core.Objects == 0 {
		t.Fatalf("allocs not populated: %+v", rec.Allocs)
	}
	attributed := rec.Allocs.Core.Objects + rec.Allocs.Control.Objects +
		rec.Allocs.Pads.Objects + rec.Allocs.Reps.Objects
	if attributed > rec.Allocs.Total.Objects {
		t.Fatalf("attributed %d > total %d", attributed, rec.Allocs.Total.Objects)
	}
}

// TestTelemetryMetricFamilies asserts the new exposition families appear
// after a cold compile: per-pass allocation counters, runtime telemetry,
// and the SLO burn-rate gauges.
func TestTelemetryMetricFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := postSpec(t, ts.URL+"/compile", specText(1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d", resp.StatusCode)
	}

	get, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	page, err := prom.Parse(get.Body)
	if err != nil {
		t.Fatalf("exposition page failed to parse: %v", err)
	}

	find := func(name, labelK, labelV string) (float64, bool) {
		for _, s := range page.Samples {
			if s.Name == name && (labelK == "" || s.Labels[labelK] == labelV) {
				return s.Value, true
			}
		}
		return 0, false
	}
	for _, pass := range []string{"core", "control", "pads", "reps"} {
		if _, ok := find("bbd_pass_allocs_total", "pass", pass); !ok {
			t.Errorf("bbd_pass_allocs_total{pass=%q} missing", pass)
		}
		if _, ok := find("bbd_pass_alloc_bytes_total", "pass", pass); !ok {
			t.Errorf("bbd_pass_alloc_bytes_total{pass=%q} missing", pass)
		}
	}
	if v, ok := find("bbd_pass_allocs_total", "pass", "core"); !ok || v == 0 {
		t.Errorf("bbd_pass_allocs_total{pass=core} = %v after a cold compile", v)
	}
	if v, ok := page.Get("bbd_compile_allocs_total"); !ok || v == 0 {
		t.Errorf("bbd_compile_allocs_total = %v, want > 0", v)
	}
	if v, ok := page.Get("bbd_runtime_goroutines"); !ok || v == 0 {
		t.Errorf("bbd_runtime_goroutines = %v, want > 0", v)
	}
	for _, name := range []string{
		"bbd_runtime_heap_bytes", "bbd_runtime_total_bytes",
		"bbd_runtime_alloc_objects_total", "bbd_runtime_alloc_bytes_total",
		"bbd_runtime_gc_cycles_total",
	} {
		if _, ok := page.Get(name); !ok {
			t.Errorf("%s missing from exposition", name)
		}
	}
	for _, name := range []string{"bbd_runtime_gc_pause_seconds", "bbd_runtime_sched_latency_seconds"} {
		if page.Types[name] != "histogram" {
			t.Errorf("%s TYPE = %q, want histogram", name, page.Types[name])
		}
	}
	for _, win := range []string{"short", "full"} {
		if v, ok := find("bbd_slo_availability", "window", win); !ok || v != 1.0 {
			t.Errorf("bbd_slo_availability{window=%q} = %v (ok=%v), want 1.0 after only good requests", win, v, ok)
		}
		if v, ok := find("bbd_slo_eligible_requests", "window", win); !ok || v == 0 {
			t.Errorf("bbd_slo_eligible_requests{window=%q} = %v, want > 0", win, v)
		}
	}
	if v, ok := page.Get("bbd_slo_availability_target"); !ok || v <= 0 || v > 1 {
		t.Errorf("bbd_slo_availability_target = %v", v)
	}
}

// TestSLODebugEndpoint asserts /debug/slo serves the burn-rate report and
// that a client error (unparseable spec) stays out of the denominator.
func TestSLODebugEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := postSpec(t, ts.URL+"/compile", specText(1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d", resp.StatusCode)
	}
	// A bad spec is a 400 — the client's fault, excluded from the budget.
	if resp, _ := postSpec(t, ts.URL+"/compile", "this is not a chip"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status = %d, want 400", resp.StatusCode)
	}

	get, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var rep slo.Report
	if err := json.NewDecoder(get.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Full.Eligible != 1 {
		t.Errorf("eligible = %d, want 1 (the 400 is a client error)", rep.Full.Eligible)
	}
	if rep.Full.ClientErrors != 1 {
		t.Errorf("client_errors = %d, want 1", rep.Full.ClientErrors)
	}
	if rep.Full.Availability != 1.0 || rep.Full.AvailabilityBurnRate != 0 {
		t.Errorf("availability=%v burn=%v, want 1.0 / 0", rep.Full.Availability, rep.Full.AvailabilityBurnRate)
	}
}

// TestProfilesEndpoint exercises the continuous-profiling ring over HTTP:
// enabled, the index lists captured profiles and serves their bytes;
// disabled, the route 404s.
func TestProfilesEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ProfileInterval: 50 * time.Millisecond,
		ProfileDir:      t.TempDir(),
		ProfileKeep:     4,
	})
	// Force one rotation rather than racing the ticker.
	if err := s.profiles.Rotate(); err != nil {
		t.Fatal(err)
	}

	get, err := http.Get(ts.URL + "/debug/profiles")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var idx struct {
		Profiles []struct {
			ID   string `json:"id"`
			Kind string `json:"kind"`
		} `json:"profiles"`
	}
	if err := json.NewDecoder(get.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Profiles) < 2 {
		t.Fatalf("index lists %d profiles, want cpu+heap", len(idx.Profiles))
	}
	pget, err := http.Get(ts.URL + "/debug/profiles/" + idx.Profiles[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer pget.Body.Close()
	if pget.StatusCode != http.StatusOK {
		t.Fatalf("profile fetch status = %d", pget.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(pget.Body); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("profile body empty")
	}

	_, tsOff := newTestServer(t, Config{})
	off, err := http.Get(tsOff.URL + "/debug/profiles")
	if err != nil {
		t.Fatal(err)
	}
	off.Body.Close()
	if off.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled ring status = %d, want 404", off.StatusCode)
	}
}

// syncBuffer is a goroutine-safe writer for the trace-export test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceExportOTLP asserts -trace-export writes one OTLP/JSON line per
// flight-recorded compile, under the inbound trace id.
func TestTraceExportOTLP(t *testing.T) {
	var out syncBuffer
	_, ts := newTestServer(t, Config{TraceExport: &out})
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	tp := "00-" + traceID + "-00f067aa0ba902b7-01"
	if resp, _ := postSpecHeader(t, ts.URL+"/compile", specText(1), map[string]string{"traceparent": tp}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("%d export lines, want 1", len(lines))
	}
	var doc struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string `json:"traceId"`
					SpanID       string `json:"spanId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &doc); err != nil {
		t.Fatalf("export line is not JSON: %v", err)
	}
	if len(doc.ResourceSpans) != 1 || len(doc.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("unexpected OTLP shape: %s", lines[0])
	}
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) == 0 {
		t.Fatal("no spans exported")
	}
	sawRemoteParent := false
	for _, sp := range spans {
		if sp.TraceID != traceID {
			t.Fatalf("span %q traceId = %q, want %q", sp.Name, sp.TraceID, traceID)
		}
		if sp.ParentSpanID == "00f067aa0ba902b7" {
			sawRemoteParent = true
		}
	}
	if !sawRemoteParent {
		t.Fatal("no exported span parents onto the inbound span id")
	}
}

// flightRecord fetches a request's flight record from /debug/compiles/{id}.
func flightRecord(t *testing.T, baseURL, id string) flightrec.Record {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/compiles/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/compiles/%s = %d", id, resp.StatusCode)
	}
	var rec flightrec.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatalf("/debug/compiles/%s is not a flight record: %v", id, err)
	}
	return rec
}

// phaseFamilies reads every per-phase family from /debug/vars: the pass
// time sums and latency counts and the allocation counters.
func phaseFamilies(t *testing.T, baseURL string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	for k, v := range debugVars(t, baseURL) {
		switch {
		case strings.HasPrefix(k, "pass_"), strings.HasPrefix(k, "compile_alloc"):
			out[k] = counter(t, map[string]any{k: v}, k)
		case strings.HasPrefix(k, "latency_ms_pass_"):
			out[k+".count"] = counter(t, v.(map[string]any), "count")
		}
	}
	if len(out) != 16 {
		t.Fatalf("/debug/vars has %d per-phase keys, want 16: %v", len(out), out)
	}
	return out
}

// TestTelemetryPhaseRecordAgrees: a compile's phase record is the one
// source of its pass times and allocations, so for each phase the reply's
// times_us, the span's duration and allocation attributes, the flight
// record's allocs and the /debug/vars deltas all read the same numbers.
func TestTelemetryPhaseRecordAgrees(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "chips", "adder4.bb"))
	if err != nil {
		t.Fatal(err)
	}
	before := phaseFamilies(t, ts.URL)
	resp, cr := postSpec(t, ts.URL+"/compile?trace=1", string(src))
	if resp.StatusCode != http.StatusOK || cr.Cached {
		t.Fatalf("cold compile: status %d, cached %v", resp.StatusCode, cr.Cached)
	}
	after := phaseFamilies(t, ts.URL)
	rec := flightRecord(t, ts.URL, cr.RequestID)
	if rec.Allocs == nil {
		t.Fatal("flight record has no allocs")
	}
	spans := make(map[string]trace.Span)
	for _, s := range cr.Trace {
		spans[s.Name] = s
	}
	phases := []struct {
		p         trace.Phase
		key, span string
		us        int64 // the reply's times_us entry (-1: none)
	}{
		{trace.PhaseCore, "core", "pass.core", cr.TimesUS.Core},
		{trace.PhaseControl, "control", "pass.control", cr.TimesUS.Control},
		{trace.PhasePads, "pads", "pass.pads", cr.TimesUS.Pads},
		{trace.PhaseReps, "reps", "pass.representations", -1},
		{trace.PhaseTotal, "total", "compile", cr.TimesUS.Total},
	}
	for _, ph := range phases {
		s, ok := spans[ph.span]
		if !ok {
			t.Fatalf("no %s span in the reply's trace", ph.span)
		}
		if ph.us >= 0 && s.DurUS != ph.us {
			t.Errorf("%s: times_us %d, span dur_us %d", ph.key, ph.us, s.DurUS)
		}
		m := rec.Allocs[ph.p]
		if got, want := s.Attrs["allocs"], strconv.FormatUint(m.Objects, 10); got != want {
			t.Errorf("%s: span allocs %s, flight record %s", ph.key, got, want)
		}
		if got, want := s.Attrs["alloc_bytes"], strconv.FormatUint(m.Bytes, 10); got != want {
			t.Errorf("%s: span alloc_bytes %s, flight record %s", ph.key, got, want)
		}

		objects, bytes := "pass_allocs_"+ph.key, "pass_alloc_bytes_"+ph.key
		if ph.p == trace.PhaseTotal {
			objects, bytes = "compile_allocs_total", "compile_alloc_bytes_total"
		}
		if d := after[objects] - before[objects]; d != int64(m.Objects) {
			t.Errorf("%s moved by %d, flight record %d", objects, d, m.Objects)
		}
		if d := after[bytes] - before[bytes]; d != int64(m.Bytes) {
			t.Errorf("%s moved by %d, flight record %d", bytes, d, m.Bytes)
		}
		if ph.p <= trace.PhasePads {
			key := "pass_us_" + ph.key
			if d := after[key] - before[key]; d != ph.us {
				t.Errorf("%s moved by %d, times_us %d", key, d, ph.us)
			}
		}
	}
}
