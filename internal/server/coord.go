package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"bristleblocks/internal/cache"
	"bristleblocks/internal/obs/prom"
	"bristleblocks/internal/trace"
)

// The coordinator is the farm's front door: warm hits — local or fetched
// from the shard ring — are answered on this node, and cold compiles are
// forwarded to whichever worker currently has the most headroom. Load is
// whatever the workers already publish: each poll scrapes a worker's
// /metrics page and reads bbd_in_flight + bbd_queue_depth, so routing
// needs no new protocol and agrees with what an operator's dashboard
// shows. Worker failure is routing input, not an error: a worker that
// can't be reached is marked dead for a grace period and skipped, a
// worker that sheds (5xx) just loses this request to the next candidate,
// and when every worker is out the coordinator compiles the spec itself —
// the farm degrades to a single node, it never degrades to a 502.

const (
	// coordLoadTTL is how long one load sample stays fresh; polls are
	// per-worker and lazy, so an idle farm costs no scrape traffic.
	coordLoadTTL = 250 * time.Millisecond
	// coordDeadFor is how long an unreachable worker sits out before the
	// coordinator probes it again.
	coordDeadFor = 2 * time.Second
)

type coordinator struct {
	s       *Server
	workers []string // ring members minus this node, sorted
	client  *http.Client
	timeout time.Duration // bounds each load poll, not forwarded compiles

	mu     sync.Mutex
	states map[string]*workerState
}

type workerState struct {
	load      float64
	polled    time.Time
	deadUntil time.Time
}

func newCoordinator(s *Server) (*coordinator, error) {
	pt := s.cache.Peers()
	if pt == nil {
		return nil, fmt.Errorf("coordinator mode requires a peer list (-peers)")
	}
	var workers []string
	for _, n := range pt.Nodes() {
		if n != pt.Self() {
			workers = append(workers, n)
		}
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("coordinator mode needs at least one peer besides self %q", pt.Self())
	}
	timeout := s.cfg.PeerTimeout
	if timeout <= 0 {
		timeout = cache.DefaultPeerTimeout
	}
	return &coordinator{
		s:       s,
		workers: workers,
		timeout: timeout,
		states:  make(map[string]*workerState),
		// No client-level timeout: forwarded compiles are bounded by the
		// request context, which already carries the compile deadline.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}},
	}, nil
}

// ranked returns the live workers cheapest-first. Stale loads are
// re-polled concurrently before ranking; a worker whose poll fails is
// marked dead and left out until its grace period lapses.
func (c *coordinator) ranked() []string {
	now := time.Now()
	var stale []string
	c.mu.Lock()
	for _, w := range c.workers {
		st := c.states[w]
		if st == nil {
			st = &workerState{}
			c.states[w] = st
		}
		if now.Before(st.deadUntil) {
			continue
		}
		if now.Sub(st.polled) > coordLoadTTL {
			stale = append(stale, w)
		}
	}
	c.mu.Unlock()

	if len(stale) > 0 {
		var wg sync.WaitGroup
		for _, w := range stale {
			wg.Add(1)
			go func(w string) {
				defer wg.Done()
				c.poll(w)
			}(w)
		}
		wg.Wait()
	}

	now = time.Now()
	type cand struct {
		name string
		load float64
	}
	var live []cand
	c.mu.Lock()
	for _, w := range c.workers {
		st := c.states[w]
		if st == nil || now.Before(st.deadUntil) {
			continue
		}
		live = append(live, cand{w, st.load})
	}
	c.mu.Unlock()
	sort.SliceStable(live, func(i, j int) bool { return live[i].load < live[j].load })
	out := make([]string, len(live))
	for i, l := range live {
		out[i] = l.name
	}
	return out
}

// poll scrapes one worker's /metrics and records its load (inflight +
// queued). An unreachable or unparsable worker is marked dead.
func (c *coordinator) poll(w string) {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	load, err := scrapeLoad(ctx, c.client, w)
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.states[w]
	if st == nil {
		st = &workerState{}
		c.states[w] = st
	}
	if err != nil {
		st.deadUntil = time.Now().Add(coordDeadFor)
		c.s.metrics.coordPollErrors.Add(1)
		return
	}
	st.load = load
	st.polled = time.Now()
	st.deadUntil = time.Time{}
}

// scrapeLoad reads one worker's load from its Prometheus page.
func scrapeLoad(ctx context.Context, client *http.Client, worker string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("worker metrics: %s", resp.Status)
	}
	page, err := prom.Parse(resp.Body)
	if err != nil {
		return 0, err
	}
	inFlight, _ := page.Get("bbd_in_flight")
	queued, _ := page.Get("bbd_queue_depth")
	return inFlight + queued, nil
}

// markDead sits a worker out after a transport failure mid-forward.
func (c *coordinator) markDead(w string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.states[w]
	if st == nil {
		st = &workerState{}
		c.states[w] = st
	}
	st.deadUntil = time.Now().Add(coordDeadFor)
}

// deadWorkers counts workers currently sitting out (metrics gauge).
func (c *coordinator) deadWorkers() int {
	now := time.Now()
	n := 0
	c.mu.Lock()
	for _, st := range c.states {
		if now.Before(st.deadUntil) {
			n++
		}
	}
	c.mu.Unlock()
	return n
}

// forward sends one spec to a worker's /compile and buffers the whole
// reply. Buffering is what makes re-routing safe: a worker that dies
// mid-response fails here, before a single byte reached the client, so
// the caller can try the next worker.
func (c *coordinator) forward(ctx context.Context, worker, rawQuery string, body []byte, parent trace.SpanContext) (int, []byte, error) {
	url := worker + "/compile"
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	if parent.Valid() {
		// The worker's compile becomes a child span of this node's root, so
		// the farm hop renders as one distributed trace.
		req.Header.Set("traceparent", parent.Traceparent())
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// compileRemote routes one cold spec across the farm: workers are tried
// cheapest-first, a transport failure marks the worker dead and moves on,
// and a shedding worker (5xx) just forfeits the request to the next one.
// ok is false when no worker produced an answer — the caller compiles
// locally, which is the farm's last-resort degradation. A request whose
// own context died (client disconnect, compile deadline) is the one
// failure that is NOT the farm's: the abandoned forward neither benches
// the worker nor counts as a re-route or fallback, so the coord_*
// counters keep meaning what a dashboard thinks they mean.
func (c *coordinator) compileRemote(ctx context.Context, rawQuery string, body []byte, parent trace.SpanContext, log *slog.Logger) (int, []byte, bool) {
	for _, worker := range c.ranked() {
		if ctx.Err() != nil {
			break
		}
		status, data, err := c.forward(ctx, worker, rawQuery, body, parent)
		if err != nil {
			if ctx.Err() != nil {
				// The client hung up (or the deadline fired) while this
				// forward was in flight. That says nothing about the worker:
				// don't bench it, don't call the abandoned attempt a re-route.
				break
			}
			c.markDead(worker)
			c.s.metrics.coordReroutes.Add(1)
			log.Warn("worker unreachable, re-routing", "worker", worker, "err", err)
			continue
		}
		if status >= 500 {
			// Alive but shedding or failing; don't bench it, just move on.
			c.s.metrics.coordReroutes.Add(1)
			log.Warn("worker refused, re-routing", "worker", worker, "status", status)
			continue
		}
		c.s.metrics.coordRouted.Add(1)
		return status, data, true
	}
	if ctx.Err() != nil {
		// The caller's local path will surface ctx.Err() as this request's
		// outcome; the fallback counter keeps meaning "every worker was out".
		return 0, nil, false
	}
	c.s.metrics.coordFallbacks.Add(1)
	log.Warn("no worker reachable, compiling locally")
	return 0, nil, false
}
