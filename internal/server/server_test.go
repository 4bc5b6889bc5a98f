package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bristleblocks/internal/desc"
	"bristleblocks/internal/experiments"
)

func specText(idx int) string {
	return desc.Format(experiments.SpecFor(experiments.Suite[idx]))
}

// variantSpec is suite spec idx renamed with suffix i, so every variant
// has a cache key of its own and a compile nobody else can join. (A
// comment would not do: the key hashes the canonical text, which drops
// comments.)
func variantSpec(idx, i int) string {
	spec := experiments.SpecFor(experiments.Suite[idx])
	spec.Name += fmt.Sprintf("v%d", i)
	return desc.Format(spec)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postSpec(t *testing.T, url, spec string) (*http.Response, *CompileResponse) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(spec))
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

func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := specText(1)

	resp, cr := postSpec(t, ts.URL+"/compile", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if cr.Cached {
		t.Fatal("first compile claimed a cache hit")
	}
	if cr.Stats.CellsPlaced == 0 || cr.Chip == "" || len(cr.Key) != 64 {
		t.Fatalf("incomplete response: %+v", cr)
	}
	if cr.CIF != "" {
		t.Fatal("CIF returned without being requested")
	}

	resp, cr = postSpec(t, ts.URL+"/compile?reps=cif,text", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !cr.Cached {
		t.Fatal("identical spec missed the cache")
	}
	if !strings.Contains(cr.CIF, "DS") || cr.Text == "" {
		t.Fatal("requested representations missing")
	}
	if cr.Block != "" || cr.Logical != "" {
		t.Fatal("unrequested representations returned")
	}
}

func TestDebugVarsReportsCacheHits(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := specText(1)
	for i := 0; i < 3; i++ {
		if resp, _ := postSpec(t, ts.URL+"/compile", spec); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Requests int64 `json:"requests"`
		Compiles int64 `json:"compiles"`
		Cache    struct {
			Hits     int64   `json:"hits"`
			Misses   int64   `json:"misses"`
			HitRatio float64 `json:"hit_ratio"`
		} `json:"cache"`
		LatencyCore struct {
			Count int64 `json:"count"`
		} `json:"latency_ms_pass_core"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("debug vars is not valid JSON: %v", err)
	}
	if vars.Requests != 3 || vars.Compiles != 1 {
		t.Fatalf("requests=%d compiles=%d, want 3/1", vars.Requests, vars.Compiles)
	}
	if vars.Cache.Hits < 2 || vars.Cache.HitRatio <= 0 {
		t.Fatalf("cache hits=%d ratio=%v, want >=2 and >0", vars.Cache.Hits, vars.Cache.HitRatio)
	}
	if vars.LatencyCore.Count != 1 {
		t.Fatalf("pass-core histogram count = %d, want 1", vars.LatencyCore.Count)
	}
	// One lookup per request: the cold compile is one miss, not a miss in
	// the handler and another in the worker.
	if vars.Cache.Hits != 2 || vars.Cache.Misses != 1 {
		t.Fatalf("cache hits=%d misses=%d, want exactly 2/1", vars.Cache.Hits, vars.Cache.Misses)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, url, body string
		want            int
	}{
		{"bad spec", "/compile", "chip\nnonsense", http.StatusBadRequest},
		{"empty body", "/compile", "", http.StatusBadRequest},
		{"bad option", "/compile?nopads=maybe", specText(1), http.StatusBadRequest},
		{"bad rep", "/compile?reps=gds", specText(1), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, "text/plain", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile: status = %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d", resp.StatusCode)
	}
}

// TestTimeoutReturnsPromptly pins the acceptance criterion: a request
// whose deadline expires mid-compile answers quickly with 504 instead of
// finishing all three passes.
func TestTimeoutReturnsPromptly(t *testing.T) {
	// The worker holds the job until its deadline expires — standing in
	// for a compile slower than the configured timeout — then hands the
	// dead context to CompileCtx, which must refuse to run the passes.
	s, ts := newTestServer(t, Config{
		Timeout:       10 * time.Millisecond,
		BeforeCompile: func(ctx context.Context) { <-ctx.Done() },
	})
	start := time.Now()
	resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(specText(5)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timed-out request took %v to answer", elapsed)
	}
	if n := s.metrics.compiles.Value(); n != 0 {
		t.Fatalf("a timed-out request still completed %d compile(s)", n)
	}
	if n := s.metrics.timeouts.Value(); n != 1 {
		t.Fatalf("timeouts counter = %d, want 1", n)
	}
}

func TestQueueFullSheds(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, Timeout: time.Minute,
		BeforeCompile: func(ctx context.Context) {
			select {
			case <-release:
			case <-ctx.Done():
			}
		},
	})

	// Occupy the single worker; it blocks in BeforeCompile until released.
	slow := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(specText(5)))
		if err != nil {
			slow <- 0
			return
		}
		resp.Body.Close()
		slow <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.InFlight() == 1 })

	// Four more requests (distinct specs, so none can hit the cache): one
	// takes the single queue slot and blocks; the other three must be shed
	// immediately with 503.
	codes := make(chan int, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			spec := variantSpec(2, i)
			resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(spec))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	for i := 0; i < 3; i++ {
		if c := <-codes; c != http.StatusServiceUnavailable {
			t.Fatalf("overflow request %d got %d, want 503", i, c)
		}
	}

	// Releasing the worker drains the occupier and the queued request.
	close(release)
	if got := <-slow; got != http.StatusOK {
		t.Fatalf("in-flight request finished with %d", got)
	}
	if got := <-codes; got != http.StatusOK {
		t.Fatalf("queued request finished with %d", got)
	}
}

// TestGracefulShutdownDrains starts a compile, begins shutdown, and
// verifies the in-flight request completes while new work is refused.
func TestGracefulShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 1, Timeout: time.Minute,
		BeforeCompile: func(ctx context.Context) {
			select {
			case <-release:
			case <-ctx.Done():
			}
		},
	})
	got := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(specText(5)))
		if err != nil {
			got <- 0
			return
		}
		resp.Body.Close()
		got <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.InFlight() == 1 })

	// Begin draining while the worker is still busy. Shutdown must not
	// return until the in-flight compile finishes.
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// While draining, new work is refused and healthz reports it.
	waitFor(t, func() bool {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(specText(1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain request got %d, want 503", resp.StatusCode)
	}
	select {
	case err := <-shutdownErr:
		t.Fatalf("shutdown returned (%v) with a compile still in flight", err)
	default:
	}

	// Releasing the worker lets the drain complete and the in-flight
	// request succeed.
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	if code := <-got; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain", code)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentMixedLoad hammers the server from many goroutines with a
// mix of specs; run under -race this is the data-race canary for the
// pool, cache, and metrics.
func TestConcurrentMixedLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	specs := []string{specText(1), specText(2), specText(1)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				spec := specs[(g+i)%len(specs)]
				resp, err := http.Post(ts.URL+"/compile?reps=text", "text/plain", strings.NewReader(spec))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestCompileTraceParam: ?trace=1 returns the request's spans — a cold
// compile shows the cache miss plus per-pass and per-element spans; a warm
// re-request shows the single lookup hit. Untraced requests carry none.
func TestCompileTraceParam(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := specText(1)

	resp, cr := postSpec(t, ts.URL+"/compile?trace=1", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if cr.Cached {
		t.Fatal("first compile claimed a cache hit")
	}
	var sawMiss, sawPass, sawGen bool
	for _, s := range cr.Trace {
		switch {
		case s.Name == "cache.lookup" && !s.Hit:
			sawMiss = true
		case s.Name == "pass.core":
			sawPass = true
		case strings.HasPrefix(s.Name, "gen."):
			sawGen = true
		}
	}
	if !sawMiss || !sawPass || !sawGen {
		t.Fatalf("cold trace incomplete (miss=%v pass=%v gen=%v): %+v", sawMiss, sawPass, sawGen, cr.Trace)
	}

	resp, cr = postSpec(t, ts.URL+"/compile?trace=1", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !cr.Cached {
		t.Fatal("identical spec missed the cache")
	}
	if len(cr.Trace) != 1 || cr.Trace[0].Name != "cache.lookup" || !cr.Trace[0].Hit {
		t.Fatalf("warm trace = %+v, want a single lookup hit", cr.Trace)
	}

	resp, cr = postSpec(t, ts.URL+"/compile", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(cr.Trace) != 0 {
		t.Fatalf("untraced request returned %d spans", len(cr.Trace))
	}

	if resp, _ := postSpec(t, ts.URL+"/compile?trace=2", spec); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace=2 status = %d, want 400", resp.StatusCode)
	}
}

// TestGenElementHistogram: cold compiles feed the per-element generation
// histogram exported on /debug/vars.
func TestGenElementHistogram(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := postSpec(t, ts.URL+"/compile", specText(2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		GenElement struct {
			Count int `json:"count"`
		} `json:"latency_ms_gen_element"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.GenElement.Count == 0 {
		t.Fatal("latency_ms_gen_element recorded no element generations")
	}
}
