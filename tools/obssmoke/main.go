// Obssmoke is the observability smoke checker CI runs against a live bbd:
// it boots the daemon binary, compiles an example chip through it, runs an
// edit session (open, compile, recompile one edit, close), then scrapes
// and validates every operator surface — /metrics parses as Prometheus
// text format with the compiler-core gauges and the bbd_incr_* session
// counters populated, /debug/vars is JSON with percentile fields on the
// histograms, /debug/compiles holds the compile's flight record with a
// complete span tree, and /debug/pprof/profile serves a CPU profile. A
// daemon whose dashboards would be blank fails here, before it ships.
//
// The PR 9 telemetry tier is covered too: the cold compile carries a W3C
// traceparent that must echo back in the response and the flight record,
// the per-pass allocation and runtime families must populate, the SLO
// burn-rate gauges and /debug/slo must answer, the continuous-profiling
// ring must serve a captured profile, and the -trace-export file must
// hold the compile's OTLP/JSON line.
//
// The farm leg boots two more daemons peered over -peers, streams a
// batch through one, warm-hits the other across the cache tier, and
// asserts the bbd_peer_*, bbd_owner_* and bbd_batch_* families moved —
// the counters a standalone daemon never touches.
//
// Usage:
//
//	go build -o /tmp/bbd ./cmd/bbd
//	go run ./tools/obssmoke -bbd /tmp/bbd -spec examples/chips/adder4.bb
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"bristleblocks/internal/obs/flightrec"
	"bristleblocks/internal/obs/prom"
	"bristleblocks/internal/trace"
)

func main() {
	bbd := flag.String("bbd", "", "path to the built bbd binary (required)")
	specPath := flag.String("spec", "examples/chips/adder4.bb", "chip description to compile through the daemon")
	addr := flag.String("addr", "127.0.0.1:8729", "address the daemon listens on for the check")
	farmAddrA := flag.String("farm-addr-a", "127.0.0.1:8731", "address of the first farm-leg daemon")
	farmAddrB := flag.String("farm-addr-b", "127.0.0.1:8732", "address of the second farm-leg daemon")
	wait := flag.Duration("wait", 10*time.Second, "how long to wait for the daemon to become healthy")
	flag.Parse()
	if *bbd == "" {
		fatal(fmt.Errorf("-bbd is required (build with `go build -o /tmp/bbd ./cmd/bbd`)"))
	}
	spec, err := os.ReadFile(*specPath)
	if err != nil {
		fatal(err)
	}

	tmpDir, err := os.MkdirTemp("", "obssmoke-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmpDir)
	exportPath := tmpDir + "/traces.jsonl"
	cmd := exec.Command(*bbd, "-addr", *addr, "-log-level", "debug", "-log-json",
		"-trace-export", exportPath,
		"-profile-interval", "500ms", "-profile-keep", "4", "-profile-dir", tmpDir+"/profiles")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fatal(fmt.Errorf("starting %s: %w", *bbd, err))
	}
	daemons = append(daemons, cmd)
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
	}()
	base := "http://" + *addr

	if err := waitHealthy(base, *wait); err != nil {
		fatal(err)
	}
	// Healthy must mean OUR daemon: if the child died (say the port was
	// already bound by a stale daemon), /healthz answers from the wrong
	// process and every later check lies.
	if err := cmd.Process.Signal(syscall.Signal(0)); err != nil {
		fatal(fmt.Errorf("daemon exited early (is %s already bound?): %w", *addr, err))
	}
	step("daemon healthy at %s", base)

	// Compile the example chip cold with an injected traceparent; the
	// response must carry a request ID that keys into the flight recorder
	// and must echo the injected trace id (the round-trip check).
	sc := trace.NewSpanContext()
	creq, err := http.NewRequest(http.MethodPost, base+"/compile?trace=chrome", strings.NewReader(string(spec)))
	if err != nil {
		fatal(err)
	}
	creq.Header.Set("Content-Type", "text/plain")
	creq.Header.Set("traceparent", sc.Traceparent())
	resp, err := http.DefaultClient.Do(creq)
	if err != nil {
		fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("compile: status %d: %s", resp.StatusCode, body))
	}
	var compile struct {
		RequestID   string          `json:"request_id"`
		TraceID     string          `json:"trace_id"`
		Chip        string          `json:"chip"`
		Cached      bool            `json:"cached"`
		TraceEvents json.RawMessage `json:"trace_events"`
	}
	if err := json.Unmarshal(body, &compile); err != nil {
		fatal(fmt.Errorf("compile response is not JSON: %w", err))
	}
	if compile.RequestID == "" {
		fatal(fmt.Errorf("compile response has no request_id"))
	}
	if len(compile.TraceEvents) == 0 {
		fatal(fmt.Errorf("trace=chrome response has no trace_events"))
	}
	if compile.TraceID != sc.TraceIDString() {
		fatal(fmt.Errorf("traceparent round-trip: daemon answered trace %q, client injected %q", compile.TraceID, sc.TraceIDString()))
	}
	step("compiled %s cold (request %s, trace %s joined)", compile.Chip, compile.RequestID, compile.TraceID)

	// An edit session: open, compile the spec twice (the second with one
	// edited constant), close. The second compile must answer mostly from
	// the session's warm artifact store — a session that silently recompiles
	// from scratch would still return correct CIF, so only the incr counters
	// catch it.
	sresp, err := http.Post(base+"/session", "", nil)
	if err != nil {
		fatal(err)
	}
	var sess struct {
		SessionID string `json:"session_id"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&sess); err != nil {
		fatal(fmt.Errorf("POST /session: %w", err))
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusCreated || sess.SessionID == "" {
		fatal(fmt.Errorf("POST /session: status %d, id %q", sresp.StatusCode, sess.SessionID))
	}
	sessionCompile := func(text string) (id string, hits, misses int64) {
		resp, err := http.Post(base+"/session/"+sess.SessionID+"/compile", "text/plain", strings.NewReader(text))
		if err != nil {
			fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fatal(fmt.Errorf("session compile: status %d: %s", resp.StatusCode, body))
		}
		var sc struct {
			RequestID string `json:"request_id"`
			Incr      *struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"incr"`
		}
		if err := json.Unmarshal(body, &sc); err != nil || sc.Incr == nil {
			fatal(fmt.Errorf("session compile response has no incr counters: %v", err))
		}
		return sc.RequestID, sc.Incr.Hits, sc.Incr.Misses
	}
	sessionCompile(string(spec))
	edited := strings.Replace(string(spec), "value=1", "value=13", 1)
	if edited == string(spec) {
		fatal(fmt.Errorf("spec %s has no value=1 constant to edit", *specPath))
	}
	editID, hits, misses := sessionCompile(edited)
	if hits == 0 || hits <= misses {
		fatal(fmt.Errorf("session one-edit recompile: %d hits, %d misses (want mostly hits)", hits, misses))
	}
	dreq, _ := http.NewRequest(http.MethodDelete, base+"/session/"+sess.SessionID, nil)
	if dresp, err := http.DefaultClient.Do(dreq); err != nil || dresp.StatusCode != http.StatusNoContent {
		fatal(fmt.Errorf("DELETE /session/%s failed", sess.SessionID))
	}
	step("session one-edit recompile: %d artifact hits, %d misses", hits, misses)
	srec, err := getJSON[flightrec.Record](base + "/debug/compiles/" + editID)
	if err != nil {
		fatal(err)
	}
	if srec.Allocs == nil || srec.Allocs[trace.PhaseTotal].Objects == 0 {
		fatal(fmt.Errorf("session compile's flight record has no allocs: %+v", srec.Allocs))
	}

	// /metrics parses as Prometheus exposition and the compiler-core
	// gauges reflect the compiles that just ran — including the session
	// counters, which must survive the session's retirement.
	page, err := scrapeProm(base + "/metrics")
	if err != nil {
		fatal(err)
	}
	for _, name := range []string{
		"bbd_requests_total", "bbd_compiles_total",
		"bbd_core_cells_generated_total", "bbd_core_pitch_lambda",
		"bbd_incr_session_compiles_total", "bbd_incr_hits_total",
		"bbd_incr_sessions_created_total", "bbd_incr_sessions_expired_total",
	} {
		if v, ok := page.Get(name); !ok || v <= 0 {
			fatal(fmt.Errorf("/metrics %s = %v,%v (want > 0 after a cold compile and a session)", name, v, ok))
		}
	}
	if page.Types["bbd_request_latency_ms"] != "histogram" {
		fatal(fmt.Errorf("/metrics bbd_request_latency_ms type = %q", page.Types["bbd_request_latency_ms"]))
	}
	// The PR 9 families: per-pass allocation attribution, runtime
	// telemetry, and SLO burn-rate gauges.
	labeled := func(name, labelK, labelV string) (float64, bool) {
		for _, s := range page.Samples {
			if s.Name == name && s.Labels[labelK] == labelV {
				return s.Value, true
			}
		}
		return 0, false
	}
	for _, pass := range []string{"core", "control", "pads", "reps"} {
		if _, ok := labeled("bbd_pass_allocs_total", "pass", pass); !ok {
			fatal(fmt.Errorf("/metrics bbd_pass_allocs_total{pass=%q} missing", pass))
		}
		if _, ok := labeled("bbd_pass_alloc_bytes_total", "pass", pass); !ok {
			fatal(fmt.Errorf("/metrics bbd_pass_alloc_bytes_total{pass=%q} missing", pass))
		}
	}
	if v, ok := labeled("bbd_pass_seconds_total", "pass", "core"); !ok || v <= 0 {
		fatal(fmt.Errorf("/metrics bbd_pass_seconds_total{pass=core} = %v after a cold compile", v))
	}
	for _, name := range []string{"bbd_runtime_goroutines", "bbd_runtime_heap_bytes", "bbd_runtime_alloc_objects_total"} {
		if v, ok := page.Get(name); !ok || v <= 0 {
			fatal(fmt.Errorf("/metrics %s = %v,%v (want > 0)", name, v, ok))
		}
	}
	if page.Types["bbd_runtime_gc_pause_seconds"] != "histogram" {
		fatal(fmt.Errorf("/metrics bbd_runtime_gc_pause_seconds type = %q", page.Types["bbd_runtime_gc_pause_seconds"]))
	}
	for _, win := range []string{"short", "full"} {
		if v, ok := labeled("bbd_slo_availability", "window", win); !ok || v != 1.0 {
			fatal(fmt.Errorf("/metrics bbd_slo_availability{window=%q} = %v,%v (want 1.0 after good requests)", win, v, ok))
		}
	}
	step("/metrics parses: %d samples, %d families (alloc, runtime, slo present)", len(page.Samples), len(page.Types))

	// /debug/vars is JSON and its histograms carry percentile summaries.
	vars, err := getJSON[map[string]any](base + "/debug/vars")
	if err != nil {
		fatal(err)
	}
	hist, ok := vars["latency_ms_request"].(map[string]any)
	if !ok {
		fatal(fmt.Errorf("/debug/vars latency_ms_request is %T", vars["latency_ms_request"]))
	}
	for _, key := range []string{"p50", "p95", "p99"} {
		if _, ok := hist[key]; !ok {
			fatal(fmt.Errorf("/debug/vars histogram missing %q", key))
		}
	}
	step("/debug/vars histograms carry percentiles")

	// The flight recorder holds the compile with a complete span tree.
	recs, err := getJSON[[]map[string]any](base + "/debug/compiles")
	if err != nil {
		fatal(err)
	}
	if len(recs) == 0 {
		fatal(fmt.Errorf("/debug/compiles is empty after a cold compile"))
	}
	rec, err := getJSON[flightrec.Record](base + "/debug/compiles/" + compile.RequestID)
	if err != nil {
		fatal(err)
	}
	if err := checkSpanTree(rec.Spans); err != nil {
		fatal(fmt.Errorf("flight record %s: %w", compile.RequestID, err))
	}
	if rec.TraceID != sc.TraceIDString() {
		fatal(fmt.Errorf("flight record trace_id = %q, client injected %q", rec.TraceID, sc.TraceIDString()))
	}
	if rec.Allocs == nil || rec.Allocs[trace.PhaseTotal].Objects == 0 || rec.Allocs[trace.PhaseCore].Objects == 0 {
		fatal(fmt.Errorf("flight record has no per-pass alloc attribution: %+v", rec.Allocs))
	}
	// The cold compile is the only one counted in bbd_compiles_total, so
	// it alone fed the per-phase families: the session compiles must not.
	if v, _ := labeled("bbd_pass_allocs_total", "pass", "core"); v != float64(rec.Allocs[trace.PhaseCore].Objects) {
		fatal(fmt.Errorf("/metrics bbd_pass_allocs_total{pass=core} = %v, the cold compile's record %d: session compiles moved it", v, rec.Allocs[trace.PhaseCore].Objects))
	}
	step("flight record has a complete span tree (%d spans), trace id, and alloc attribution", len(rec.Spans))

	// /debug/slo answers the burn-rate report.
	slo, err := getJSON[map[string]any](base + "/debug/slo")
	if err != nil {
		fatal(err)
	}
	for _, key := range []string{"availability_target", "short", "full"} {
		if _, ok := slo[key]; !ok {
			fatal(fmt.Errorf("/debug/slo missing %q: %v", key, slo))
		}
	}
	step("/debug/slo serves the burn-rate report")

	// The continuous-profiling ring must capture and serve a profile; the
	// first CPU capture takes ~1s, so poll briefly.
	var ringIdx struct {
		Profiles []struct {
			ID   string `json:"id"`
			Kind string `json:"kind"`
		} `json:"profiles"`
	}
	ringDeadline := time.Now().Add(*wait)
	for {
		ringIdx, err = getJSON[struct {
			Profiles []struct {
				ID   string `json:"id"`
				Kind string `json:"kind"`
			} `json:"profiles"`
		}](base + "/debug/profiles")
		if err == nil && len(ringIdx.Profiles) > 0 {
			break
		}
		if time.Now().After(ringDeadline) {
			fatal(fmt.Errorf("profile ring captured nothing within %v (err=%v)", *wait, err))
		}
		time.Sleep(200 * time.Millisecond)
	}
	rresp, err := http.Get(base + "/debug/profiles/" + ringIdx.Profiles[0].ID)
	if err != nil {
		fatal(err)
	}
	ringProfile, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || len(ringProfile) == 0 {
		fatal(fmt.Errorf("/debug/profiles/%s: status %d, %d bytes", ringIdx.Profiles[0].ID, rresp.StatusCode, len(ringProfile)))
	}
	step("profile ring served %s (%d bytes, %d profiles indexed)", ringIdx.Profiles[0].ID, len(ringProfile), len(ringIdx.Profiles))

	// The -trace-export file holds the compile's OTLP/JSON line under the
	// injected trace id.
	exported, err := os.ReadFile(exportPath)
	if err != nil {
		fatal(fmt.Errorf("-trace-export wrote nothing: %w", err))
	}
	foundTrace := false
	for _, line := range strings.Split(strings.TrimSpace(string(exported)), "\n") {
		if line == "" {
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			fatal(fmt.Errorf("-trace-export line is not JSON: %w", err))
		}
		if _, ok := doc["resourceSpans"]; !ok {
			fatal(fmt.Errorf("-trace-export line has no resourceSpans"))
		}
		if strings.Contains(line, sc.TraceIDString()) {
			foundTrace = true
		}
	}
	if !foundTrace {
		fatal(fmt.Errorf("-trace-export holds no line under the injected trace %s", sc.TraceIDString()))
	}
	step("-trace-export holds OTLP/JSON under the injected trace id")

	// The profiler answers with an actual CPU profile. Only one CPU
	// profile can run process-wide and the continuous ring periodically
	// holds it, so retry until a gap opens.
	var profile []byte
	pprofDeadline := time.Now().Add(*wait)
	for {
		presp, err := http.Get(base + "/debug/pprof/profile?seconds=1")
		if err != nil {
			fatal(err)
		}
		profile, _ = io.ReadAll(presp.Body)
		presp.Body.Close()
		if presp.StatusCode == http.StatusOK && len(profile) > 0 {
			break
		}
		if time.Now().After(pprofDeadline) {
			fatal(fmt.Errorf("/debug/pprof/profile: status %d, %d bytes", presp.StatusCode, len(profile)))
		}
		time.Sleep(200 * time.Millisecond)
	}
	step("/debug/pprof/profile served %d bytes", len(profile))

	// The farm leg: two more daemons peered over the consistent-hash ring.
	// A batch streamed through node A and a warm cross-node hit from node B
	// must move the bbd_batch_*, bbd_peer_* and bbd_owner_* families —
	// counters a standalone daemon never touches. Whichever node the ring
	// makes the key's owner, a peer interaction happens: either A forwards
	// the cold compile to B, or B fetches A's result at request time.
	baseA, baseB := "http://"+*farmAddrA, "http://"+*farmAddrB
	peersFlag := baseA + "," + baseB
	for _, node := range []struct{ addr, self string }{
		{*farmAddrA, baseA},
		{*farmAddrB, baseB},
	} {
		fc := exec.Command(*bbd, "-addr", node.addr, "-peers", peersFlag, "-self", node.self,
			"-log-level", "warn", "-log-json")
		fc.Stdout = os.Stderr
		fc.Stderr = os.Stderr
		if err := fc.Start(); err != nil {
			fatal(fmt.Errorf("starting farm node %s: %w", node.addr, err))
		}
		daemons = append(daemons, fc)
		defer func() {
			fc.Process.Signal(os.Interrupt)
			fc.Wait()
		}()
	}
	for _, b := range []string{baseA, baseB} {
		if err := waitHealthy(b, *wait); err != nil {
			fatal(err)
		}
	}
	step("farm leg healthy: %s + %s peered", baseA, baseB)

	// Stream a two-spec batch through node A and check every NDJSON line.
	batchBody, err := json.Marshal(map[string][]string{"specs": {string(spec), edited}})
	if err != nil {
		fatal(err)
	}
	bresp, err := http.Post(baseA+"/compile/batch", "application/json", strings.NewReader(string(batchBody)))
	if err != nil {
		fatal(err)
	}
	if bresp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("/compile/batch: status %d", bresp.StatusCode))
	}
	if ct := bresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		fatal(fmt.Errorf("/compile/batch content type %q", ct))
	}
	var batchItems int
	bdec := json.NewDecoder(bresp.Body)
	for bdec.More() {
		var item struct {
			Index  int
			Error  string
			Result *struct {
				Chip string `json:"chip"`
			}
		}
		if err := bdec.Decode(&item); err != nil {
			fatal(fmt.Errorf("/compile/batch stream: %w", err))
		}
		if item.Error != "" || item.Result == nil {
			fatal(fmt.Errorf("/compile/batch item %d failed: %q", item.Index, item.Error))
		}
		batchItems++
	}
	bresp.Body.Close()
	if batchItems != 2 {
		fatal(fmt.Errorf("/compile/batch streamed %d items, want 2", batchItems))
	}
	step("batch streamed %d NDJSON results through %s", batchItems, baseA)

	// The same spec from node B must answer warm through the shared tier.
	wresp, err := http.Post(baseB+"/compile", "text/plain", strings.NewReader(string(spec)))
	if err != nil {
		fatal(err)
	}
	wbody, _ := io.ReadAll(wresp.Body)
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("farm warm compile: status %d: %s", wresp.StatusCode, wbody))
	}
	var warm struct {
		Chip   string `json:"chip"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(wbody, &warm); err != nil {
		fatal(err)
	}
	if !warm.Cached {
		fatal(fmt.Errorf("farm warm compile of %s recompiled; the batch on %s should have warmed the tier", warm.Chip, baseA))
	}
	step("cross-node request answered warm (chip %s, cached)", warm.Chip)

	// Both nodes' /metrics must carry the farm families with the expected
	// movement: ring size 2 everywhere, the batch counters on A, at least
	// one peer interaction somewhere, and zero degradations (peer errors,
	// timeouts or local fallbacks) on a healthy farm.
	pageA, err := scrapeProm(baseA + "/metrics")
	if err != nil {
		fatal(err)
	}
	pageB, err := scrapeProm(baseB + "/metrics")
	if err != nil {
		fatal(err)
	}
	farmGet := func(page *prom.Page, name string) float64 {
		v, ok := page.Get(name)
		if !ok {
			fatal(fmt.Errorf("farm /metrics missing %s", name))
		}
		return v
	}
	for _, page := range []*prom.Page{pageA, pageB} {
		if v := farmGet(page, "bbd_peer_nodes"); v != 2 {
			fatal(fmt.Errorf("bbd_peer_nodes = %v, want 2", v))
		}
		if v := farmGet(page, "bbd_peer_errors_total") + farmGet(page, "bbd_peer_timeouts_total") +
			farmGet(page, "bbd_owner_fallbacks_total"); v != 0 {
			fatal(fmt.Errorf("healthy farm degraded: %v peer errors+timeouts+fallbacks", v))
		}
	}
	if v := farmGet(pageA, "bbd_batch_requests_total"); v < 1 {
		fatal(fmt.Errorf("bbd_batch_requests_total = %v after a batch", v))
	}
	if v := farmGet(pageA, "bbd_batch_specs_total"); v < 2 {
		fatal(fmt.Errorf("bbd_batch_specs_total = %v after a 2-spec batch", v))
	}
	if v := farmGet(pageA, "bbd_batch_errors_total"); v != 0 {
		fatal(fmt.Errorf("bbd_batch_errors_total = %v", v))
	}
	forwards := farmGet(pageA, "bbd_owner_forwards_total") + farmGet(pageB, "bbd_owner_forwards_total")
	traffic := farmGet(pageA, "bbd_peer_fetches_total") + farmGet(pageB, "bbd_peer_fetches_total") + forwards
	if traffic < 1 {
		fatal(fmt.Errorf("no peer traffic crossed the farm (fetches+forwards = %v)", traffic))
	}
	step("farm families populated: ring=2 on both nodes, batch counters on A, %v peer interactions", traffic)

	fmt.Println("obssmoke: ok")
}

// checkSpanTree asserts the record's spans form a complete tree: exactly
// one "compile" root (the cache lookup that preceded it is its own
// root-level span), every parent ID resolves, and the three passes hang
// off the compile root.
func checkSpanTree(spans []trace.Span) error {
	if len(spans) == 0 {
		return fmt.Errorf("no spans")
	}
	byID := map[int64]trace.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	compileRoots := 0
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Name == "compile" {
				compileRoots++
			}
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			return fmt.Errorf("span %q has dangling parent %d", s.Name, s.Parent)
		}
	}
	if compileRoots != 1 {
		return fmt.Errorf("%d compile roots, want 1", compileRoots)
	}
	for _, pass := range []string{"pass.core", "pass.control", "pass.pads"} {
		found := false
		for _, s := range spans {
			if s.Name == pass && byID[s.Parent].Name == "compile" {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("no %s span under the root", pass)
		}
	}
	return nil
}

func waitHealthy(base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("daemon not healthy at %s within %v", base, budget)
}

func scrapeProm(url string) (*prom.Page, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return nil, fmt.Errorf("%s: content type %q", url, ct)
	}
	page, err := prom.Parse(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return page, nil
}

func getJSON[T any](url string) (T, error) {
	var out T
	resp, err := http.Get(url)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("%s: %w", url, err)
	}
	return out, nil
}

func step(format string, args ...any) {
	fmt.Printf("obssmoke: "+format+"\n", args...)
}

// daemons are the spawned bbds, killed on fatal so a failed run never
// leaves a stale daemon squatting on a port for the next run.
var daemons []*exec.Cmd

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obssmoke: FAIL:", err)
	for _, d := range daemons {
		if d != nil && d.Process != nil {
			d.Process.Kill()
			d.Wait()
		}
	}
	os.Exit(1)
}
