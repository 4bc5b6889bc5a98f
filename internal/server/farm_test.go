package server_test

// The farm fault-injection battery: a multi-node bbd farm (farmtest) with
// failures injected at the transport — killed nodes, partitioned owners,
// slow owners — while the battery asserts the farm's one promise:
// degradation, never loss. A dead or partitioned owner costs a local
// compile, a slow owner costs its fetch timeout; none of them cost a
// wrong answer, a missing batch line, or a 5xx. Concurrent cold requests
// for one key, wherever they enter, cost one compile.
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

// TestFarmWorkerKilledMidBatch posts a batch to one node and kills
// another node while compiles forwarded to it are in flight. The batch
// must still deliver exactly one line per spec, each byte-identical to a
// single node's answer — the kill is visible only in the entry node's
// bbd_owner_fallbacks_total.
func TestFarmWorkerKilledMidBatch(t *testing.T) {
	const victim = 1
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	farm, err := farmtest.New(farmtest.Config{
		Workers: 3,
		Node:    server.Config{Workers: 2, QueueDepth: 16, Parallelism: 1, Timeout: 60 * time.Second},
		Configure: func(i int, sc *server.Config) {
			// Every compile holds until the kill has happened, and the
			// victim announces its first — so the victim is guaranteed to
			// die with the batch's work in flight on it.
			sc.BeforeCompile = func(ctx context.Context) {
				if i == victim {
					select {
					case started <- struct{}{}:
					default:
					}
				}
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	single, err := server.New(server.Config{Workers: 2, Parallelism: 1, Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(single.Handler())
	defer ts.Close()
	defer single.Shutdown(context.Background())

	// Three specs owned by each node, so the entry node compiles some
	// itself and forwards the rest to both other nodes.
	const perNode = 3
	ring := cache.NewRing(farm.URLs())
	opts := &core.Options{SkipPads: true}
	owned := make(map[string]int)
	var specs []string
	for seed := int64(31000); len(specs) < perNode*len(farm.Workers()); seed++ {
		if seed > 31500 {
			t.Fatal("no seeds in [31000,31500] fill every node — ring balance is broken")
		}
		spec := specgen.FromSeed(seed, nil)
		if owner := ring.Owner(cache.Key(spec, opts)); owned[owner] < perNode {
			owned[owner]++
			specs = append(specs, desc.Format(spec))
		}
	}
	n := len(specs)
	want := make([]*server.CompileResponse, n)
	for i, text := range specs {
		status, cr := postCompile(t, ts.URL, text, "nopads=1&reps=cif")
		if status != http.StatusOK {
			t.Fatalf("single-node compile %d answered %d", i, status)
		}
		want[i] = cr
	}

	body, _ := json.Marshal(server.BatchRequest{Specs: specs})
	type batchDone struct {
		items []server.BatchItem
		err   error
	}
	entry := farm.Workers()[0].URL
	done := make(chan batchDone, 1)
	go func() {
		resp, err := http.Post(entry+"/compile/batch?nopads=1&reps=cif",
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

	// Wait for a forwarded compile to start on the victim, kill it, then
	// let every compile proceed.
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("no forwarded compile started on the victim within 30s")
	}
	farm.Workers()[victim].Kill()
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
		w := want[item.Index]
		if item.Result.CIF != w.CIF || item.Result.Stats != w.Stats || item.Result.Key != w.Key {
			t.Errorf("index %d differs from the single-node answer", item.Index)
		}
	}
	if v := scrapeCounter(t, entry, "bbd_owner_fallbacks_total"); v < 1 {
		t.Errorf("node %d was killed with forwards in flight but bbd_owner_fallbacks_total = %v", victim, v)
	}
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

	// The fetch toward the dead owner failed, so the node compiled
	// locally without trying to forward.
	nodeA := farm.Workers()[0].URL
	if errs := scrapeCounter(t, nodeA, "bbd_peer_errors_total") + scrapeCounter(t, nodeA, "bbd_peer_timeouts_total"); errs < 1 {
		t.Error("peer fetch failure left no trace in bbd_peer_errors_total/bbd_peer_timeouts_total")
	}
	if v := scrapeCounter(t, nodeA, "bbd_owner_fallbacks_total"); v != 1 {
		t.Errorf("bbd_owner_fallbacks_total = %v, want 1", v)
	}
	if v := scrapeCounter(t, nodeA, "bbd_owner_forwards_total"); v != 0 {
		t.Errorf("bbd_owner_forwards_total = %v, want 0 (the owner is partitioned)", v)
	}
}

// TestFarmOwnerShedsDegradesToLocal: an owner that answers the lookup
// but sheds the forwarded compile (here: draining, so its queue answers
// 503) costs a local compile, never a 5xx to the client.
func TestFarmOwnerShedsDegradesToLocal(t *testing.T) {
	farm, err := farmtest.New(farmtest.Config{
		Workers: 2,
		Node:    server.Config{Workers: 1, Parallelism: 1, Timeout: 60 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()

	opts := &core.Options{SkipPads: true}
	owner := farm.Workers()[1]
	spec := specOwnedBy(t, cache.NewRing(farm.URLs()), owner.URL, opts, 38000)
	if err := owner.Server.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	node := farm.Workers()[0].URL
	status, cr := postCompile(t, node, desc.Format(spec), "nopads=1")
	if status != http.StatusOK || cr.Cached {
		t.Fatalf("compile behind a shedding owner answered %d (cached=%v), want a 200 local compile", status, cr.Cached)
	}
	if v := scrapeCounter(t, node, "bbd_owner_fallbacks_total"); v != 1 {
		t.Errorf("bbd_owner_fallbacks_total = %v, want 1", v)
	}
	if v := scrapeCounter(t, node, "bbd_owner_forwards_total"); v != 0 {
		t.Errorf("bbd_owner_forwards_total = %v, want 0 (the owner shed)", v)
	}
	if v := scrapeCounter(t, node, "bbd_compiles_total"); v != 1 {
		t.Errorf("entry node's bbd_compiles_total = %v, want 1", v)
	}
}

// TestFarmColdCompileFetchesOnce compiles a key another node owns: the
// request looks it up once, so the owner is asked once and the miss is
// counted once, and the compile runs on the owner, not on the node the
// request entered.
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
	if got := scrapeCounter(t, farm.Workers()[1].URL, "bbd_compiles_total"); got != 1 {
		t.Errorf("owner's bbd_compiles_total = %v, want 1", got)
	}
	if got := scrapeCounter(t, node, "bbd_compiles_total"); got != 0 {
		t.Errorf("entry node's bbd_compiles_total = %v, want 0", got)
	}
}

// TestFarmSlowPeerTimeout points a lookup at an owner that answers after
// seconds while the tier's budget is tens of milliseconds: the compile
// must complete fast (local, never forwarded to the stalled owner), and
// the slow fetch must land in bbd_peer_timeouts_total.
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
	// The request paid one fetch budget plus the compile itself —
	// nothing close to the peer's 2s stall.
	if elapsed >= 1500*time.Millisecond {
		t.Errorf("request took %v; the peer timeout (%v) was not honored", elapsed, peerTimeout)
	}
	nodeA := farm.Workers()[0].URL
	if timeouts := scrapeCounter(t, nodeA, "bbd_peer_timeouts_total"); timeouts < 1 {
		t.Error("slow peer left no trace in bbd_peer_timeouts_total")
	}
	if v := scrapeCounter(t, nodeA, "bbd_owner_fallbacks_total"); v != 1 {
		t.Errorf("bbd_owner_fallbacks_total = %v, want 1", v)
	}
	if v := scrapeCounter(t, nodeA, "bbd_owner_forwards_total"); v != 0 {
		t.Errorf("bbd_owner_forwards_total = %v, want 0 (the owner timed out)", v)
	}
	t.Logf("slow-peer compile served in %v with a %v peer budget", elapsed, peerTimeout)
}

// TestFarmClientDisconnectNotWorkerFault: a client that hangs up while
// its compile is forwarded to the key's owner must not dent the farm's
// health accounting: the abandoned forward is not a local fallback (a
// phantom fallback would page whoever alerts on the counter), and the
// next cold compile of a key the owner owns is forwarded straight to it.
func TestFarmClientDisconnectNotWorkerFault(t *testing.T) {
	const ownerIdx = 1
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	farm, err := farmtest.New(farmtest.Config{
		Workers: 2,
		Node:    server.Config{Workers: 2, QueueDepth: 16, Parallelism: 1, Timeout: 60 * time.Second},
		Configure: func(i int, sc *server.Config) {
			if i != ownerIdx {
				return // only the owner holds compiles open
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
	entry := farm.Workers()[0].URL
	ring := cache.NewRing(farm.URLs())
	opts := &core.Options{SkipPads: true}
	owner := farm.Workers()[ownerIdx].URL
	first := specOwnedBy(t, ring, owner, opts, 35000)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, entry+"/compile?nopads=1",
		strings.NewReader(desc.Format(first)))
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
		t.Fatal("forwarded compile never started on the owner")
	}
	cancel() // the client hangs up with its compile in flight on the owner
	if err := <-errc; err == nil {
		t.Fatal("canceled request still answered; the disconnect never happened")
	}

	// The entry node's latency histogram records every terminal outcome,
	// so its count turning 1 means the abandoned request fully unwound.
	deadline := time.Now().Add(10 * time.Second)
	for scrapeCounter(t, entry, "bbd_request_latency_ms_count") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("entry handler never finished after the disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v := scrapeCounter(t, entry, "bbd_owner_fallbacks_total"); v != 0 {
		t.Errorf("client disconnect counted as %v local fallbacks; want 0", v)
	}
	if v := scrapeCounter(t, entry, "bbd_owner_forwards_total"); v != 0 {
		t.Errorf("abandoned forward counted as %v answered forwards; want 0", v)
	}

	// The owner is still first in line: a follow-up cold compile of a key
	// it owns is forwarded to it, not answered by a local fallback.
	close(release) // the canceled compile already left via ctx.Done
	next := specOwnedBy(t, ring, owner, opts, 36000)
	status, cr := postCompile(t, entry, desc.Format(next), "nopads=1")
	if status != http.StatusOK {
		t.Fatalf("follow-up compile answered %d", status)
	}
	if cr.Cached {
		t.Error("follow-up compile claims a warm hit; want a cold forwarded compile")
	}
	if v := scrapeCounter(t, entry, "bbd_owner_forwards_total"); v != 1 {
		t.Errorf("follow-up compile was not forwarded (bbd_owner_forwards_total = %v)", v)
	}
	if v := scrapeCounter(t, entry, "bbd_owner_fallbacks_total"); v != 0 {
		t.Errorf("follow-up compile fell back locally; the disconnect spoiled the owner")
	}
}

// TestFarmSingleFlight sends 100 concurrent identical cold /compile
// requests, spread over a 3-node farm: the farm must compile the key
// exactly once (on its owner, which the other nodes forward to) and give
// every request the same answer. Every compile is held until every
// request has reached the owner, so all of them overlap the first. In
// the hang-up case the first request hangs up while its compile is held:
// the others must not inherit its cancel, and still get 200.
func TestFarmSingleFlight(t *testing.T) {
	for _, hangUp := range []bool{false, true} {
		t.Run(fmt.Sprintf("hangup=%v", hangUp), func(t *testing.T) {
			const n = 100
			release := make(chan struct{})
			started, unheld := make(chan struct{}), make(chan struct{})
			var held sync.Once
			farm, err := farmtest.New(farmtest.Config{
				Workers:     3,
				PeerTimeout: 30 * time.Second,
				Node:        server.Config{Workers: 2, Parallelism: 1, Timeout: 60 * time.Second},
				Configure: func(i int, sc *server.Config) {
					sc.BeforeCompile = func(ctx context.Context) {
						first := false
						held.Do(func() { first = true })
						if first {
							close(started)
							defer close(unheld)
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
			nodes := farm.Workers()
			spec := specgen.FromSeed(37000, nil)
			text := desc.Format(spec)
			ownerURL := cache.NewRing(farm.URLs()).Owner(cache.Key(spec, &core.Options{SkipPads: true}))

			type reply struct {
				status int
				cr     server.CompileResponse
				err    error
			}
			post := func(ctx context.Context, node string) reply {
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/compile?nopads=1&reps=cif", strings.NewReader(text))
				if err != nil {
					return reply{err: err}
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return reply{err: err}
				}
				defer resp.Body.Close()
				r := reply{status: resp.StatusCode}
				if r.status == http.StatusOK {
					r.err = json.NewDecoder(resp.Body).Decode(&r.cr)
				}
				return r
			}

			// The first request leads; its client may hang up later.
			ctx0, cancel0 := context.WithCancel(context.Background())
			defer cancel0()
			replies := make([]reply, n)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				replies[0] = post(ctx0, nodes[0].URL)
			}()
			select {
			case <-started:
			case <-time.After(30 * time.Second):
				t.Fatal("the first compile never started")
			}
			for i := 1; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					replies[i] = post(context.Background(), nodes[i%len(nodes)].URL)
				}(i)
			}
			// Every request, forwarded or not, reaches the owner's handler;
			// wait for all of them (bounded) before ending the held compile.
			deadline := time.Now().Add(20 * time.Second)
			for scrapeCounter(t, ownerURL, "bbd_requests_total") < n && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if hangUp {
				// Release the rest only once the first compile has seen
				// its own cancel.
				cancel0()
				select {
				case <-unheld:
				case <-time.After(30 * time.Second):
					t.Fatal("the hung-up compile never saw its cancel")
				}
			}
			close(release)
			wg.Wait()

			compiles := 0.0
			for _, node := range nodes {
				compiles += scrapeCounter(t, node.URL, "bbd_compiles_total")
			}
			if compiles != 1 {
				t.Errorf("farm ran %v compiles for %d identical requests, want 1", compiles, n)
			}
			var want *server.CompileResponse
			for i, r := range replies {
				if i == 0 && hangUp {
					if r.err == nil {
						t.Error("the hung-up request still got an answer")
					}
					continue
				}
				if r.err != nil || r.status != http.StatusOK {
					t.Errorf("request %d: status %d, err %v; want 200", i, r.status, r.err)
					continue
				}
				if want == nil {
					want = &replies[i].cr
					continue
				}
				if r.cr.CIF != want.CIF || r.cr.Key != want.Key || r.cr.Stats != want.Stats || r.cr.Chip != want.Chip {
					t.Errorf("request %d got a different answer", i)
				}
			}
			if want == nil || want.CIF == "" {
				t.Fatal("no request got a CIF back")
			}
		})
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
