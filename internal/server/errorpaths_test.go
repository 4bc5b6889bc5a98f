package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// Error-path contract tests: each failure mode must answer with the right
// status code AND show up in the right expvar counter, read back through
// the public /debug/vars endpoint the way an operator's scrape would.

func debugVars(t *testing.T, baseURL string) map[string]any {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars = %d", resp.StatusCode)
	}
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	return vars
}

func counter(t *testing.T, vars map[string]any, name string) int64 {
	t.Helper()
	v, ok := vars[name]
	if !ok {
		t.Fatalf("/debug/vars has no %q", name)
	}
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("%q is %T, want a number", name, v)
	}
	return int64(f)
}

func TestErrorPathMalformedSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i, body := range []string{
		"",
		"chip\nnonsense",
		"chip x\nmicrocode width 1\ndata width 1\nelement \"\" registers",
	} {
		resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed body %d: status = %d, want 400", i, resp.StatusCode)
		}
		vars := debugVars(t, ts.URL)
		if got := counter(t, vars, "bad_specs"); got != int64(i+1) {
			t.Fatalf("after %d malformed bodies: bad_specs = %d", i+1, got)
		}
		// A rejected spec never reaches a worker or the error counters.
		if got := counter(t, vars, "compiles"); got != 0 {
			t.Fatalf("malformed body still compiled: compiles = %d", got)
		}
		if got := counter(t, vars, "compile_errors"); got != 0 {
			t.Fatalf("malformed body counted as compile error: %d", got)
		}
	}
}

func TestErrorPathQueueFullCounter(t *testing.T) {
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

	// One request occupies the worker, a second takes the single queue
	// slot; every further distinct spec must shed with 503 and tick
	// rejected_queue_full.
	inFlight := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			spec := variantSpec(5, i)
			resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(spec))
			if err != nil {
				inFlight <- 0
				return
			}
			resp.Body.Close()
			inFlight <- resp.StatusCode
		}(i)
	}
	waitFor(t, func() bool { return s.InFlight() == 1 && len(s.jobs) == 1 })

	const shed = 3
	for i := 0; i < shed; i++ {
		spec := variantSpec(2, i)
		resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("overflow request %d: status = %d, want 503", i, resp.StatusCode)
		}
	}
	vars := debugVars(t, ts.URL)
	if got := counter(t, vars, "rejected_queue_full"); got != shed {
		t.Fatalf("rejected_queue_full = %d, want %d", got, shed)
	}
	if got := counter(t, vars, "queue_capacity"); got != 1 {
		t.Fatalf("queue_capacity = %d, want 1", got)
	}

	// Shedding is load protection, not failure: releasing the worker
	// drains both held requests successfully.
	close(release)
	for i := 0; i < 2; i++ {
		if got := <-inFlight; got != http.StatusOK {
			t.Fatalf("held request finished with %d", got)
		}
	}
}

func TestErrorPathClientCancelMidCompile(t *testing.T) {
	entered := make(chan struct{}, 1)
	hold := make(chan struct{}, 1)
	hold <- struct{}{} // only the first compile is held; later ones run free
	s, ts := newTestServer(t, Config{
		Workers: 1, Timeout: time.Minute,
		BeforeCompile: func(ctx context.Context) {
			select {
			case <-hold:
				entered <- struct{}{}
				<-ctx.Done() // hold until the caller gives up
			default:
			}
		},
	})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/compile", strings.NewReader(specText(5)))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request succeeded with %d despite cancel", resp.StatusCode)
		}
		errc <- err
	}()
	<-entered // the compile is in a worker now
	cancel()
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client saw %v, want context cancellation", err)
	}

	// The abandoned job must drain without being misclassified.
	waitFor(t, func() bool { return s.InFlight() == 0 })
	vars := debugVars(t, ts.URL)
	if got := counter(t, vars, "timeouts"); got != 0 {
		t.Fatalf("client cancel counted as timeout: %d", got)
	}
	if got := counter(t, vars, "compile_errors"); got != 0 {
		t.Fatalf("client cancel counted as compile error: %d", got)
	}
	if got := counter(t, vars, "compiles"); got != 0 {
		t.Fatalf("abandoned job still compiled: %d", got)
	}

	// The worker pool survives the abandonment: a fresh request compiles.
	resp, cr := postSpec(t, ts.URL+"/compile", specText(1))
	if resp.StatusCode != http.StatusOK || cr.Chip == "" {
		t.Fatalf("post-cancel compile: status %d, chip %q", resp.StatusCode, cr.Chip)
	}
}
