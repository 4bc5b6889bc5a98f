package server_test

// The farm fault-injection battery: a multi-node bbd farm (farmtest) with
// failures injected at the transport — killed workers, partitioned cache
// peers, slow peers — while the battery asserts the farm's one promise:
// degradation, never loss. A dead worker costs a re-route, a dead peer
// costs a local compile, a slow peer costs its timeout; none of them cost
// a wrong answer, a missing batch line, or a 5xx.
//
// These tests live outside package server (farmtest imports server, so an
// in-package test would cycle); the exported surface they need —
// Config.BeforeCompile, the batch types — is the same one real embedders
// get.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bristleblocks/internal/cache"
	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
	"bristleblocks/internal/obs/prom"
	"bristleblocks/internal/server"
	"bristleblocks/internal/server/farmtest"
	"bristleblocks/internal/specgen"
	"bristleblocks/internal/trace"
)

// postCompile POSTs one spec to a node and decodes the reply.
func postCompile(t *testing.T, url, specText, query string) (int, *server.CompileResponse) {
	t.Helper()
	resp, err := http.Post(url+"/compile?"+query, "text/plain", strings.NewReader(specText))
	if err != nil {
		t.Fatalf("POST /compile: %v", err)
	}
	defer resp.Body.Close()
	var cr server.CompileResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatalf("decode compile response: %v", err)
		}
	}
	return resp.StatusCode, &cr
}

// scrapeCounter reads one metric family's value off a node's /metrics.
func scrapeCounter(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	page, err := prom.Parse(resp.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	v, ok := page.Get(name)
	if !ok {
		t.Fatalf("metric %s missing from %s/metrics", name, url)
	}
	return v
}

// specOwnedBy scans generator seeds for a spec whose cache key lands on
// ring node want — the precondition for every peer-failure test (a key
// this node owns itself never leaves the machine).
func specOwnedBy(t *testing.T, ring *cache.Ring, want string, opts *core.Options, firstSeed int64) *core.Spec {
	t.Helper()
	for seed := firstSeed; seed < firstSeed+200; seed++ {
		spec := specgen.FromSeed(seed, nil)
		if ring.Owner(cache.Key(spec, opts)) == want {
			return spec
		}
	}
	t.Fatalf("no seed in [%d,%d) hashes onto %s — ring balance is broken", firstSeed, firstSeed+200, want)
	return nil
}

// TestFarmWorkerKilledMidBatch kills one worker while a batch is mid
// flight through the coordinator. The batch must still deliver exactly
// one line per spec, every line correct — the re-route is visible only in
// bbd_coord_reroutes_total.
func TestFarmWorkerKilledMidBatch(t *testing.T) {
	release := make(chan struct{})
	started := make(chan int, 1)
	farm, err := farmtest.New(farmtest.Config{
		Workers:     3,
		Coordinator: true,
		Node:        server.Config{Workers: 2, QueueDepth: 16, Parallelism: 1, Timeout: 60 * time.Second},
		Configure: func(i int, sc *server.Config) {
			// Every compile announces its node, then holds until the kill
			// has happened — so the victim is guaranteed to die with the
			// batch's work in flight on it.
			sc.BeforeCompile = func(ctx context.Context) {
				select {
				case started <- i:
				default:
				}
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()

	const n = 9
	specs := make([]string, n)
	wantStats := make([]core.Stats, n)
	for i := 0; i < n; i++ {
		spec := specgen.FromSeed(31000+int64(i), nil)
		specs[i] = desc.Format(spec)
		chip, err := core.Compile(spec, &core.Options{SkipPads: true, Parallelism: 1})
		if err != nil {
			t.Fatalf("reference compile %d: %v", i, err)
		}
		wantStats[i] = chip.Stats
	}

	body, _ := json.Marshal(server.BatchRequest{Specs: specs})
	type batchDone struct {
		items []server.BatchItem
		err   error
	}
	done := make(chan batchDone, 1)
	go func() {
		resp, err := http.Post(farm.Coordinator().URL+"/compile/batch?nopads=1",
			"application/json", bytes.NewReader(body))
		if err != nil {
			done <- batchDone{err: err}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			done <- batchDone{err: fmt.Errorf("batch answered %d", resp.StatusCode)}
			return
		}
		var items []server.BatchItem
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 64<<20)
		for sc.Scan() {
			var item server.BatchItem
			if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
				done <- batchDone{err: fmt.Errorf("bad NDJSON line: %v", err)}
				return
			}
			items = append(items, item)
		}
		done <- batchDone{items: items, err: sc.Err()}
	}()

	// Wait for the first compile to start somewhere, kill that node, then
	// let every compile proceed.
	var victim int
	select {
	case victim = <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("no compile started within 30s")
	}
	killedWorker := victim < len(farm.Workers())
	if killedWorker {
		farm.Workers()[victim].Kill()
	}
	close(release)

	var got batchDone
	select {
	case got = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("batch did not complete within 60s")
	}
	if got.err != nil {
		t.Fatalf("batch failed: %v", got.err)
	}
	if len(got.items) != n {
		t.Fatalf("batch returned %d lines, want exactly %d", len(got.items), n)
	}
	seen := make(map[int]bool)
	for _, item := range got.items {
		if item.Index < 0 || item.Index >= n {
			t.Fatalf("batch line has out-of-range index %d", item.Index)
		}
		if seen[item.Index] {
			t.Fatalf("index %d delivered twice", item.Index)
		}
		seen[item.Index] = true
		if item.Error != "" {
			t.Errorf("index %d lost to the kill: %s", item.Index, item.Error)
			continue
		}
		if item.Result == nil {
			t.Errorf("index %d has neither result nor error", item.Index)
			continue
		}
		if item.Result.Stats != wantStats[item.Index] {
			t.Errorf("index %d corrupt: stats %+v, want %+v", item.Index, item.Result.Stats, wantStats[item.Index])
		}
	}
	if killedWorker {
		if reroutes := scrapeCounter(t, farm.Coordinator().URL, "bbd_coord_reroutes_total"); reroutes < 1 {
			t.Errorf("worker %d was killed mid-batch but bbd_coord_reroutes_total = %v", victim, reroutes)
		}
	}
	t.Logf("batch of %d survived killing node %d (worker=%v)", n, victim, killedWorker)
}

// TestFarmPeerPartitionDegradesToLocal partitions the cache peer that
// owns a key and compiles that key's spec elsewhere: the request must
// succeed locally (no 5xx, correct output) with the failure visible only
// in the bbd_peer_* error counters.
func TestFarmPeerPartitionDegradesToLocal(t *testing.T) {
	farm, err := farmtest.New(farmtest.Config{
		Workers: 3,
		Node:    server.Config{Workers: 2, Parallelism: 1, Timeout: 60 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()

	urls := farm.URLs()
	ring := cache.NewRing(urls)
	opts := &core.Options{SkipPads: true}
	owner := farm.Workers()[1]
	spec := specOwnedBy(t, ring, owner.URL, opts, 32000)
	want, err := core.Compile(spec, &core.Options{SkipPads: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	owner.Partition()
	status, cr := postCompile(t, farm.Workers()[0].URL, desc.Format(spec), "nopads=1")
	if status != http.StatusOK {
		t.Fatalf("compile behind a partitioned peer answered %d, want 200 (degrade to local, never error)", status)
	}
	if cr.Stats != want.Stats {
		t.Errorf("degraded compile corrupt: stats %+v, want %+v", cr.Stats, want.Stats)
	}
	if cr.Cached {
		t.Error("compile claims a cache hit; the owning peer was partitioned")
	}

	// The fetch toward the dead owner and the push of the fresh result
	// both failed; each shows up in its own counter family.
	nodeA := farm.Workers()[0].URL
	if errs := scrapeCounter(t, nodeA, "bbd_peer_errors_total") + scrapeCounter(t, nodeA, "bbd_peer_timeouts_total"); errs < 1 {
		t.Error("peer fetch failure left no trace in bbd_peer_errors_total/bbd_peer_timeouts_total")
	}
	if putErrs := scrapeCounter(t, nodeA, "bbd_peer_put_errors_total"); putErrs < 1 {
		t.Error("peer push failure left no trace in bbd_peer_put_errors_total")
	}
}

// TestFarmColdCompileFetchesOnce compiles a key another node owns: the
// request looks it up once, so the owner is asked once and the miss is
// counted once, not again when the worker picks the compile up.
func TestFarmColdCompileFetchesOnce(t *testing.T) {
	farm, err := farmtest.New(farmtest.Config{
		Workers: 2,
		Node:    server.Config{Workers: 1, Parallelism: 1, Timeout: 60 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()

	opts := &core.Options{SkipPads: true}
	spec := specOwnedBy(t, cache.NewRing(farm.URLs()), farm.Workers()[1].URL, opts, 35000)
	node := farm.Workers()[0].URL
	if status, cr := postCompile(t, node, desc.Format(spec), "nopads=1"); status != http.StatusOK || cr.Cached {
		t.Fatalf("cold compile answered %d (cached=%v), want a 200 miss", status, cr.Cached)
	}
	if got := scrapeCounter(t, node, "bbd_peer_fetches_total"); got != 1 {
		t.Errorf("bbd_peer_fetches_total = %v, want 1", got)
	}
	if got := scrapeCounter(t, node, "bbd_cache_misses_total"); got != 1 {
		t.Errorf("bbd_cache_misses_total = %v, want 1", got)
	}
}

// TestFarmSlowPeerTimeout points a lookup at a peer that answers after
// seconds while the tier's budget is tens of milliseconds: the compile
// must complete fast (local), and the slow fetch must land in
// bbd_peer_timeouts_total.
func TestFarmSlowPeerTimeout(t *testing.T) {
	const peerTimeout = 50 * time.Millisecond
	farm, err := farmtest.New(farmtest.Config{
		Workers:     2,
		PeerTimeout: peerTimeout,
		Node:        server.Config{Workers: 2, Parallelism: 1, Timeout: 60 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()

	urls := farm.URLs()
	ring := cache.NewRing(urls)
	opts := &core.Options{SkipPads: true}
	owner := farm.Workers()[1]
	spec := specOwnedBy(t, ring, owner.URL, opts, 33000)

	owner.Slow(2 * time.Second)
	start := time.Now()
	status, cr := postCompile(t, farm.Workers()[0].URL, desc.Format(spec), "nopads=1")
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("compile behind a slow peer answered %d, want 200", status)
	}
	if cr.Cached {
		t.Error("compile claims a cache hit; the owning peer never answered in time")
	}
	// The request paid at most two peer budgets (fetch + push) plus the
	// compile itself — nothing close to the peer's 2s stall.
	if elapsed >= 1500*time.Millisecond {
		t.Errorf("request took %v; the peer timeout (%v) was not honored", elapsed, peerTimeout)
	}
	if timeouts := scrapeCounter(t, farm.Workers()[0].URL, "bbd_peer_timeouts_total"); timeouts < 1 {
		t.Error("slow peer left no trace in bbd_peer_timeouts_total")
	}
	t.Logf("slow-peer compile served in %v with a %v peer budget", elapsed, peerTimeout)
}

// TestFarmClientDisconnectNotWorkerFault: a client that hangs up while
// its compile is forwarded must not dent the farm's health accounting.
// The abandoned forward is not a re-route, the canceled request is not a
// local fallback, and above all the worker is not benched — the very next
// cold compile routes straight back to it. (Found live: a probe that died
// mid-batch marked a healthy worker dead for the grace period and pushed
// two phantom fallbacks into the counters operators alert on.)
func TestFarmClientDisconnectNotWorkerFault(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	farm, err := farmtest.New(farmtest.Config{
		Workers:     1,
		Coordinator: true,
		Node:        server.Config{Workers: 2, QueueDepth: 16, Parallelism: 1, Timeout: 60 * time.Second},
		Configure: func(i int, sc *server.Config) {
			if i != 0 {
				return // only the worker holds compiles open
			}
			sc.BeforeCompile = func(ctx context.Context) {
				select {
				case started <- struct{}{}:
				default:
				}
				select {
				case <-release:
				case <-ctx.Done():
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	coord := farm.Coordinator().URL

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, coord+"/compile?nopads=1",
		strings.NewReader(desc.Format(specgen.FromSeed(35000, nil))))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("forwarded compile never started on the worker")
	}
	cancel() // the client hangs up with its compile in flight on the worker
	if err := <-errc; err == nil {
		t.Fatal("canceled request still answered; the disconnect never happened")
	}

	// The coordinator's latency histogram records every terminal outcome,
	// so its count turning 1 means the abandoned request fully unwound.
	deadline := time.Now().Add(10 * time.Second)
	for scrapeCounter(t, coord, "bbd_request_latency_ms_count") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator handler never finished after the disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if v := scrapeCounter(t, coord, "bbd_coord_reroutes_total"); v != 0 {
		t.Errorf("client disconnect counted as %v re-routes; want 0", v)
	}
	if v := scrapeCounter(t, coord, "bbd_coord_local_fallbacks_total"); v != 0 {
		t.Errorf("client disconnect counted as %v local fallbacks; want 0", v)
	}
	if v := scrapeCounter(t, coord, "bbd_coord_dead_workers"); v != 0 {
		t.Errorf("client disconnect benched %v workers; want 0", v)
	}

	// The worker must still be first in line: a follow-up cold compile is
	// routed to it, not answered by a local fallback.
	close(release) // the canceled compile already left via ctx.Done
	status, cr := postCompile(t, coord, desc.Format(specgen.FromSeed(35001, nil)), "nopads=1")
	if status != http.StatusOK {
		t.Fatalf("follow-up compile answered %d", status)
	}
	if cr.Cached {
		t.Error("follow-up compile claims a warm hit; want a cold routed compile")
	}
	if v := scrapeCounter(t, coord, "bbd_coord_routed_total"); v < 1 {
		t.Errorf("follow-up compile was not routed (bbd_coord_routed_total = %v); the worker is still benched", v)
	}
	if v := scrapeCounter(t, coord, "bbd_coord_local_fallbacks_total"); v != 0 {
		t.Errorf("follow-up compile fell back locally; the disconnect benched the worker")
	}
}

// TestBatchStreamingOrder pins the batch stream's two transport promises:
// each NDJSON line is flushed onto the wire the moment its spec
// completes (the client reads result 1 while compile 2 is still held),
// and each spec's compile is exported as its own child of the inbound
// traceparent — distinct root span ids under the caller's trace id.
func TestBatchStreamingOrder(t *testing.T) {
	var (
		mu       sync.Mutex
		compiles int
	)
	firstRead := make(chan struct{})
	var export bytes.Buffer
	srv, err := server.New(server.Config{
		Workers:     1,
		Parallelism: 1,
		Timeout:     60 * time.Second,
		TraceExport: &export,
		BeforeCompile: func(ctx context.Context) {
			mu.Lock()
			compiles++
			c := compiles
			mu.Unlock()
			if c == 2 {
				// The second compile may not finish — may not even start
				// its passes — until the client has the first line in hand.
				<-firstRead
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	specs := []string{
		desc.Format(specgen.FromSeed(34000, nil)),
		desc.Format(specgen.FromSeed(34001, nil)),
	}
	body, _ := json.Marshal(server.BatchRequest{Specs: specs})
	inbound := trace.NewSpanContext()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/compile/batch?nopads=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", inbound.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch answered %d", resp.StatusCode)
	}

	br := bufio.NewReaderSize(resp.Body, 1<<20)
	readLine := func(what string) server.BatchItem {
		t.Helper()
		type lineOrErr struct {
			line []byte
			err  error
		}
		ch := make(chan lineOrErr, 1)
		go func() {
			l, err := br.ReadBytes('\n')
			ch <- lineOrErr{l, err}
		}()
		select {
		case le := <-ch:
			if le.err != nil {
				t.Fatalf("reading %s: %v", what, le.err)
			}
			var item server.BatchItem
			if err := json.Unmarshal(le.line, &item); err != nil {
				t.Fatalf("parsing %s: %v", what, err)
			}
			return item
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never arrived — the batch stream is not flushing per result", what)
			return server.BatchItem{}
		}
	}

	// Line 1 must arrive while compile 2 is still gated on firstRead: only
	// a per-line flush gets these bytes onto the wire now.
	first := readLine("first line (while the second compile is held)")
	if first.Error != "" || first.Result == nil {
		t.Fatalf("first line is not a clean result: %+v", first)
	}
	if first.Result.TraceID != inbound.TraceIDString() {
		t.Errorf("first result compiled under trace %q, client injected %q", first.Result.TraceID, inbound.TraceIDString())
	}
	close(firstRead)
	second := readLine("second line")
	if second.Error != "" || second.Result == nil {
		t.Fatalf("second line is not a clean result: %+v", second)
	}
	if first.Index == second.Index {
		t.Fatalf("both lines carry index %d", first.Index)
	}
	if _, err := br.ReadBytes('\n'); err == nil {
		t.Fatal("batch stream has a third line; want exactly one per spec")
	}

	// The OTLP export must show each spec as its own child of the inbound
	// context: same trace id, a root span parented on the inbound span id,
	// and a distinct root span id per spec.
	roots := map[string]bool{}
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(export.String()), "\n") {
		if line == "" {
			continue
		}
		lines++
		var exp struct {
			ResourceSpans []struct {
				ScopeSpans []struct {
					Spans []struct {
						TraceID      string `json:"traceId"`
						SpanID       string `json:"spanId"`
						ParentSpanID string `json:"parentSpanId"`
					} `json:"spans"`
				} `json:"scopeSpans"`
			} `json:"resourceSpans"`
		}
		if err := json.Unmarshal([]byte(line), &exp); err != nil {
			t.Fatalf("parsing OTLP export line: %v", err)
		}
		for _, rs := range exp.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				for _, sp := range ss.Spans {
					if sp.TraceID != inbound.TraceIDString() {
						t.Errorf("exported span under trace %q, want the inbound %q", sp.TraceID, inbound.TraceIDString())
					}
					if sp.ParentSpanID == inbound.SpanIDString() {
						roots[sp.SpanID] = true
					}
				}
			}
		}
	}
	if lines != 2 {
		t.Fatalf("exported %d OTLP lines, want one per cold batch spec (2)", lines)
	}
	if len(roots) != 2 {
		t.Fatalf("found %d distinct root spans parented on the inbound context, want 2 (one per spec)", len(roots))
	}
}
