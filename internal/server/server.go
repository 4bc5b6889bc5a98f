// Package server is the compile-as-a-service daemon core: an HTTP layer
// over the three-pass compiler with a content-addressed cache in front and
// a bounded worker pool behind. The paper's "one design cycle" becomes a
// POST: spec text in, JSON chip statistics and requested representations
// out. Load shedding is explicit — a full queue answers 503 instead of
// accepting unbounded work — and every request carries a deadline that
// core.CompileCtx honors mid-pass, so abandoned requests hand their worker
// back promptly.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"bristleblocks/internal/cache"
	"bristleblocks/internal/core"
	"bristleblocks/internal/invariant"
	"bristleblocks/internal/obs"
	"bristleblocks/internal/obs/flightrec"
	"bristleblocks/internal/obs/profring"
	"bristleblocks/internal/obs/slo"
	"bristleblocks/internal/trace"
)

// Config sizes the service.
type Config struct {
	// Cache is the compile cache (nil = a fresh default in-memory cache).
	Cache *cache.Cache
	// Workers bounds concurrent compiles (<=0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker (<=0 = 4x workers).
	QueueDepth int
	// Timeout is the per-request compile deadline (<=0 = 60s).
	Timeout time.Duration
	// MaxSpecBytes bounds the request body (<=0 = 1 MiB; the language is a
	// "single page" description, so even 1 MiB is generous).
	MaxSpecBytes int64
	// Parallelism is Pass 1's fan-out width per compile (0 = GOMAXPROCS,
	// 1 = serial). A loaded daemon already runs Workers compiles
	// concurrently, so bbd defaults this to 1 and lets the worker pool be
	// the parallelism; set it higher when the daemon mostly sees one
	// large compile at a time.
	Parallelism int
	// Logger receives the daemon's structured log stream (nil = discard).
	// Every compile request logs with a request_id attribute, and the same
	// logger — bound to that id — rides the context into pass-level
	// warnings inside the compiler.
	Logger *slog.Logger
	// FlightRecorderSize bounds the flight recorder's ring buffer: the
	// last N compiles (cold, failed, timed out) kept with their full span
	// trees for /debug/compiles (<=0 = 128).
	FlightRecorderSize int

	// MaxSessions bounds concurrently live edit sessions; at capacity the
	// least recently used session is retired (<=0 = 16).
	MaxSessions int
	// SessionTTL retires sessions idle this long (<=0 = 15m). Eviction is
	// lazy, on the session request path.
	SessionTTL time.Duration
	// SessionCacheMB is each session's artifact-store byte budget in MiB
	// (<=0 = 64).
	SessionCacheMB int

	// DisableVerify turns off the per-compile verifier: by default every
	// cold compile's logic-vs-simulation invariant is checked in the
	// worker (compiled logic against the compiled stepper — microseconds
	// per chip) and violations are logged and counted in bbd_verify_*.
	DisableVerify bool

	// SLO configures the error-budget tracker behind bbd_slo_* and
	// /debug/slo (zero fields take slo.Config defaults: 1h window,
	// 99.9% availability, 99% under 500ms).
	SLO slo.Config

	// TraceExport, when non-nil, receives one OTLP/JSON line per
	// flight-recorded compile (cold, verify, session) — the bbd
	// -trace-export flag. Writes are serialized; the writer must be safe
	// to call from request handlers (a file is fine).
	TraceExport io.Writer

	// ProfileInterval enables the continuous-profiling ring: every
	// interval the daemon captures a CPU+heap profile pair into
	// ProfileDir, keeping the last ProfileKeep of each kind, served at
	// /debug/profiles. 0 disables the ring (the endpoint answers 404).
	ProfileInterval time.Duration
	// ProfileDir is the ring's directory ("" = a fresh temp dir).
	ProfileDir string
	// ProfileKeep bounds retained profiles per kind (<=0 = 16).
	ProfileKeep int

	// Peers is the farm's full node list — every member's base URL, this
	// node's own included — for the consistent-hash cache shard ring (the
	// bbd -peers flag). Every node must receive the same set (order is
	// irrelevant; the ring sorts). Empty means single-node: no peer tier,
	// no /cache/ shard traffic.
	Peers []string
	// SelfURL is this node's own base URL exactly as it appears in Peers.
	// Required when Peers is set — the ring must know which shard is local.
	SelfURL string
	// Coordinator makes this node route cold compiles to the least-loaded
	// peer (load read from each worker's /metrics inflight and queue
	// gauges) instead of compiling them locally; warm hits are still
	// answered here from the shared cache tier. Requires Peers with at
	// least one node besides SelfURL.
	Coordinator bool
	// PeerTimeout bounds each peer cache fetch/put and each coordinator
	// load poll (<=0 = cache.DefaultPeerTimeout).
	PeerTimeout time.Duration

	// BeforeCompile runs in the worker between claiming a job and compiling
	// it. Tests use it to hold a worker busy deterministically — real specs
	// compile in milliseconds, far too fast to occupy a pool on cue.
	BeforeCompile func(context.Context)
}

// Server is the compile service. Create with New, serve via Handler, stop
// with Shutdown.
type Server struct {
	cfg      Config
	cache    *cache.Cache
	jobs     chan *job
	logger   *slog.Logger
	flight   *flightrec.Recorder
	sessions *sessionTable

	workerWG sync.WaitGroup
	stateMu  sync.RWMutex // guards closed vs. sends on jobs
	closed   bool

	metrics *metrics
	slo     *slo.Tracker

	// coord routes cold compiles across the farm (nil unless
	// Config.Coordinator).
	coord *coordinator

	// profiles is the continuous-profiling ring (nil unless
	// Config.ProfileInterval > 0); stopProfiles stops its ticker.
	profiles     *profring.Ring
	stopProfiles func()

	// exportMu serializes OTLP lines onto Config.TraceExport.
	exportMu sync.Mutex
}

type job struct {
	c      *call
	verify bool // see call.queue
	done   chan jobResult
}

type jobResult struct {
	res *cache.Result
	// chip is the cold compile's chip (nil for cache hits and failed
	// compiles).
	chip   *core.Chip
	cached bool
	err    error
}

// New builds the server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.MaxSpecBytes <= 0 {
		cfg.MaxSpecBytes = 1 << 20
	}
	if cfg.Cache == nil {
		c, err := cache.New(0, "")
		if err != nil {
			return nil, err
		}
		cfg.Cache = c
	}
	if len(cfg.Peers) > 0 {
		pt, err := cache.NewPeerTier(cfg.Peers, cfg.SelfURL, cfg.PeerTimeout)
		if err != nil {
			return nil, err
		}
		cfg.Cache.SetPeers(pt)
	} else if cfg.Coordinator {
		return nil, fmt.Errorf("coordinator mode requires a peer list (-peers)")
	}
	s := &Server{
		cfg:      cfg,
		cache:    cfg.Cache,
		jobs:     make(chan *job, cfg.QueueDepth),
		logger:   cfg.Logger,
		flight:   flightrec.New(cfg.FlightRecorderSize),
		sessions: newSessionTable(cfg.MaxSessions, cfg.SessionTTL, cfg.SessionCacheMB),
		slo:      slo.New(cfg.SLO),
	}
	if s.logger == nil {
		s.logger = obs.NopLogger()
	}
	s.metrics = newMetrics()
	if cfg.Coordinator {
		coord, err := newCoordinator(s)
		if err != nil {
			return nil, err
		}
		s.coord = coord
	}
	if cfg.ProfileInterval > 0 {
		dir := cfg.ProfileDir
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "bbd-profring-"); err != nil {
				return nil, fmt.Errorf("profile ring: %w", err)
			}
		}
		// Cap each CPU capture at half the rotation interval so the
		// process-wide CPU profiler is free between ticks — ad-hoc
		// /debug/pprof/profile sessions still get a window.
		cpuDur := time.Second
		if half := cfg.ProfileInterval / 2; half < cpuDur {
			cpuDur = half
		}
		ring, err := profring.New(dir, cfg.ProfileKeep, cpuDur)
		if err != nil {
			return nil, err
		}
		s.profiles = ring
		s.stopProfiles = ring.Start(cfg.ProfileInterval)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.jobs {
		c := j.c
		// A request that timed out while queued is dropped here rather
		// than compiled for nobody.
		if err := c.ctx.Err(); err != nil {
			j.done <- jobResult{err: err}
			continue
		}
		s.metrics.inFlight.Add(1)
		if s.cfg.BeforeCompile != nil {
			s.cfg.BeforeCompile(c.ctx)
		}
		var out jobResult
		if j.verify {
			// Verify jobs need the live chip (its compiled simulator and
			// element models), which cached results don't carry, so they
			// compile fresh every time. core.Stats is deterministic at every
			// Parallelism, so the graded verdict is byte-identical whether
			// this or any other pool size served the request.
			out.chip, out.err = core.CompileCtx(c.ctx, c.spec, c.opts)
		} else if res, ok := s.cache.GetLocal(c.key); ok {
			// Another worker filled the key during the queue wait. The
			// handler's lookup was the counted one and asked the peer, so
			// this re-check reads the local layers only.
			out = jobResult{res: res, cached: true}
		} else if out = c.build(c.ctx, c.opts, nil); out.err == nil {
			s.cache.Put(c.key, out.res)
		}
		s.metrics.inFlight.Add(-1)
		if out.cached {
			s.metrics.cacheServed.Add(1)
		} else if out.err == nil {
			// Every cold compile is traced, so its spans feed the
			// per-element histogram whether or not the client asked to
			// see them.
			s.metrics.observeCompile(out.chip, c.tr.Spans())
			s.verify(c.ctx, out.chip)
		}
		j.done <- out
	}
}

// verify runs the logic-vs-simulation invariant on a freshly compiled
// chip: the decoder's gate-level Logic representation, compiled to the
// slot evaluator, against the compiled switch-level stepper, on random
// microcode vectors. Both backends are fast enough that the check costs
// microseconds — noise against a cold compile — so it runs on every cold
// compile unless Config.DisableVerify. Violations are logged and counted,
// not failed: the compile already happened, and a lying representation is
// an operator page, not a client error.
func (s *Server) verify(ctx context.Context, chip *core.Chip) {
	if s.cfg.DisableVerify || chip == nil {
		return
	}
	t0 := time.Now()
	vs := invariant.LogicSim(ctx, chip, nil)
	s.metrics.verifyHist.observe(time.Since(t0))
	s.metrics.verifyViolations.Add(int64(len(vs)))
	if len(vs) > 0 {
		s.logger.Error("logic-vs-simulation invariant violated on cold compile",
			"chip", chip.Spec.Name, "violations", len(vs), "first", vs[0])
	}
}

// Handler returns the daemon's HTTP routes: POST /compile, POST
// /compile/batch, POST /verify, the farm shard protocol under /cache/,
// and GET /healthz for the serving path, plus every admin route (metrics,
// flight recorder, pprof) so a single-port deployment exposes everything.
// Deployments that want the admin surface on a separate, firewalled
// listener serve AdminHandler there instead.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/compile/batch", s.handleBatch)
	mux.HandleFunc("/cache/", s.handleCacheShard)
	mux.HandleFunc("/verify", s.handleVerify)
	mux.HandleFunc("/session", s.handleSession)
	mux.HandleFunc("/session/", s.handleSession)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.registerAdmin(mux)
	return mux
}

// AdminHandler returns only the operator surface: GET /metrics
// (Prometheus text format), GET /debug/vars (expvar JSON), GET
// /debug/compiles and /debug/compiles/{id} (flight recorder), and the
// net/http/pprof profiler under /debug/pprof/.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	s.registerAdmin(mux)
	return mux
}

func (s *Server) registerAdmin(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/vars", s.handleDebugVars)
	mux.HandleFunc("/debug/compiles", s.handleFlightList)
	mux.HandleFunc("/debug/compiles/", s.handleFlightGet)
	mux.HandleFunc("/debug/slo", s.handleSLO)
	mux.HandleFunc("/debug/profiles", s.handleProfiles)
	mux.HandleFunc("/debug/profiles/", s.handleProfiles)
	// The pprof handlers are registered explicitly rather than through the
	// package's init-time DefaultServeMux wiring, so they exist only on
	// muxes that asked for them.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Shutdown stops accepting work, then waits (bounded by ctx) for the queue
// to drain and every in-flight compile to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stateMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.jobs)
		if s.stopProfiles != nil {
			s.stopProfiles()
		}
	}
	s.stateMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("shutdown: %w", ctx.Err())
	}
}

// submit enqueues a job unless the server is draining or the queue is
// full. The read lock makes the closed-check-then-send atomic against
// Shutdown's close of the channel.
func (s *Server) submit(j *job) error {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed {
		return errDraining
	}
	select {
	case s.jobs <- j:
		return nil
	default:
		return errQueueFull
	}
}

var (
	errDraining  = fmt.Errorf("server is shutting down")
	errQueueFull = fmt.Errorf("compile queue is full")
)

// CompileResponse is the /compile reply. Representations appear only when
// requested via ?reps=; Trace appears only with ?trace=1 and describes
// this request's work (a cache hit traces as a single lookup span);
// TraceEvents appears only with ?trace=chrome and is the same tree in
// Chrome trace_event format, ready to save and open in Perfetto.
type CompileResponse struct {
	RequestID string `json:"request_id"`
	// TraceID is the compile's distributed trace id — the caller's, when
	// the request carried a W3C traceparent header, else freshly minted —
	// the join key between this response, the flight record, and any
	// exported spans.
	TraceID     string          `json:"trace_id,omitempty"`
	Chip        string          `json:"chip"`
	Key         string          `json:"key"`
	Cached      bool            `json:"cached"`
	Stats       core.Stats      `json:"stats"`
	TimesUS     cache.TimesUS   `json:"times_us"`
	CIF         string          `json:"cif,omitempty"`
	Sticks      string          `json:"sticks,omitempty"`
	Text        string          `json:"text,omitempty"`
	Block       string          `json:"block,omitempty"`
	Logical     string          `json:"logical,omitempty"`
	Trace       []trace.Span    `json:"trace,omitempty"`
	TraceEvents json.RawMessage `json:"trace_events,omitempty"`
	// Incr appears only on session compiles: this request's artifact-store
	// outcomes and the session store's occupancy.
	Incr *IncrCounters `json:"incr,omitempty"`
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, "POST a chip description to /compile", func(w http.ResponseWriter, c *call) {
		body, ok := c.readBody(w, s.cfg.MaxSpecBytes, "spec")
		if !ok {
			return
		}
		if err := c.parse(string(body)); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		defer c.begin()()

		// Cache hits are answered on the handler goroutine: a lookup does
		// not deserve a worker slot, a place in the queue, or a flight
		// record.
		res, cached := c.lookup()
		if cached {
			// Guarded so a hit does not pay for a line nobody keeps.
			if c.log.Enabled(c.ctx, slog.LevelDebug) {
				c.log.Debug("served from cache", "key", c.key, "dur", time.Since(c.start))
			}
		} else {
			// A coordinator sends the cold compile to the least-loaded
			// worker and relays its buffered reply verbatim (it is a
			// CompileResponse, bad-spec and compile errors included); it
			// compiles locally only when every worker is unreachable or
			// shedding.
			if s.coord != nil {
				if status, data, ok := s.coord.compileRemote(c.ctx, r.URL.RawQuery, body, c.link, c.log); ok {
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(status)
					w.Write(data)
					return
				}
			}
			out, ok := c.queue(w, false)
			if !ok || !c.finish(w, out, "") {
				return
			}
			if res, cached = out.res, out.cached; !cached {
				c.log.Info("compiled", "key", res.Key,
					"transistors", res.Stats.Transistors,
					"cells", res.Stats.CellsGenerated,
					"pla_terms", res.Stats.PLATerms,
					"dur", time.Since(c.start))
			}
		}
		resp := c.response(res, cached)
		writeCompileResponse(w, &resp, res, c.reps)
	})
}

// traceMode selects what the response carries back from the request's
// span tree.
type traceMode int

const (
	traceOff    traceMode = iota
	traceSpans            // ?trace=1 — the span array
	traceChrome           // ?trace=chrome — Chrome trace_event JSON for Perfetto
)

// parseQuery reads the option switches, representation list, and trace
// request from the request URL.
func (c *call) parseQuery() error {
	q := c.r.URL.Query()
	opts := &core.Options{}
	for name, dst := range map[string]*bool{
		"nopads":   &opts.SkipPads,
		"skipopt":  &opts.SkipOptimize,
		"skipmin":  &opts.SkipMinimize,
		"skiproto": &opts.SkipRotoRouter,
		"evenpads": &opts.EvenPads,
		"skipreps": &opts.SkipExtraReps,
	} {
		switch v := q.Get(name); v {
		case "", "0", "false":
		case "1", "true":
			*dst = true
		default:
			return fmt.Errorf("option %s=%q is not a boolean", name, v)
		}
	}
	mode := traceOff
	switch v := q.Get("trace"); v {
	case "", "0", "false":
	case "1", "true":
		mode = traceSpans
	case "chrome":
		mode = traceChrome
	default:
		return fmt.Errorf("option trace=%q wants 0, 1, or chrome", v)
	}
	reps := make(map[string]bool)
	if rq := q.Get("reps"); rq != "" {
		for _, name := range strings.Split(rq, ",") {
			switch name {
			case "cif", "sticks", "text", "block", "logical":
				reps[name] = true
			case "all":
				for _, n := range repNames {
					reps[n] = true
				}
			default:
				return fmt.Errorf("unknown representation %q (want cif, sticks, text, block, logical, all)", name)
			}
		}
	}
	c.opts, c.reps, c.mode = opts, reps, mode
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.stateMu.RLock()
	closed := s.closed
	s.stateMu.RUnlock()
	if closed {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := s.metrics.writeVars(w, s); err != nil {
		s.logger.Warn("debug vars render failed", "err", err)
	}
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.writeProm(w, s); err != nil {
		s.logger.Warn("metrics render failed", "err", err)
	}
}

// flightSummary is one /debug/compiles list entry: the record minus its
// span tree, which /debug/compiles/{id} serves in full.
type flightSummary struct {
	ID       string    `json:"id"`
	Seq      uint64    `json:"seq"`
	Start    time.Time `json:"start"`
	Chip     string    `json:"chip,omitempty"`
	SpecHash string    `json:"spec_hash,omitempty"`
	Options  string    `json:"options,omitempty"`
	Outcome  string    `json:"outcome"`
	Error    string    `json:"error,omitempty"`
	DurUS    int64     `json:"dur_us"`
	Spans    int       `json:"spans"`
}

// handleFlightList serves GET /debug/compiles: the retained compile
// records, newest first, without their span trees.
func (s *Server) handleFlightList(w http.ResponseWriter, r *http.Request) {
	recs := s.flight.Records()
	out := make([]flightSummary, len(recs))
	for i, rec := range recs {
		out[i] = flightSummary{
			ID: rec.ID, Seq: rec.Seq, Start: rec.Start,
			Chip: rec.Chip, SpecHash: rec.SpecHash, Options: rec.Options,
			Outcome: rec.Outcome, Error: rec.Error, DurUS: rec.DurUS,
			Spans: len(rec.Spans),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleFlightGet serves GET /debug/compiles/{id}: one record with its
// full span tree, the post-hoc replay of where that compile spent its
// time. Append ?format=chrome for the tree in Chrome trace_event JSON.
func (s *Server) handleFlightGet(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/compiles/")
	if id == "" {
		s.handleFlightList(w, r)
		return
	}
	rec, ok := s.flight.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no flight record %q (the ring keeps the last %d compiles)", id, s.flight.Cap())
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		if err := trace.WriteChrome(w, rec.Spans); err != nil {
			s.logger.Warn("flight record chrome export failed", "err", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rec)
}

// statusWriter captures the response status so the deferred SLO
// accounting can classify the outcome without threading a code through
// every error branch.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so the NDJSON batch stream can push
// each result line onto the wire as it lands.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// repNames lists the representations ?reps= can ask for, in the order
// CompileResponse carries them.
var repNames = [...]string{"cif", "sticks", "text", "block", "logical"}

// fillReps copies the representations the request asked for (?reps=) from
// the cached result into the response.
func fillReps(resp *CompileResponse, res *cache.Result, reps map[string]bool) {
	if reps["cif"] {
		resp.CIF = string(res.CIF)
	}
	if reps["sticks"] {
		resp.Sticks = res.Sticks
	}
	if reps["text"] {
		resp.Text = res.Text
	}
	if reps["block"] {
		resp.Block = res.Block
	}
	if reps["logical"] {
		resp.Logical = res.Logical
	}
}

// respBufs holds the buffers writeCompileResponse assembles bodies in, and
// the ones session compiles render their CIF into.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// compileTail is the part of a CompileResponse that follows the
// representations, with the same fields in the same order.
type compileTail struct {
	Trace       []trace.Span    `json:"trace,omitempty"`
	TraceEvents json.RawMessage `json:"trace_events,omitempty"`
	Incr        *IncrCounters   `json:"incr,omitempty"`
}

// writeCompileResponse writes the JSON body of a compile reply: the bytes
// json.NewEncoder(w).Encode(resp) would write after fillReps(resp, res,
// reps), in one Write. The head and tail fields go through encoding/json;
// the representations come straight from res.AppendJSON, so a cache hit
// does not re-escape its CIF and sticks text. resp's own representation
// fields must be empty. If resp does not marshal, nothing is written, as
// with Encode.
func writeCompileResponse(w http.ResponseWriter, resp *CompileResponse, res *cache.Result, reps map[string]bool) {
	head := *resp
	head.Trace, head.TraceEvents, head.Incr = nil, nil, nil
	h, err := json.Marshal(&head)
	if err != nil {
		return
	}
	t, err := json.Marshal(compileTail{resp.Trace, resp.TraceEvents, resp.Incr})
	if err != nil {
		return
	}
	bp := respBufs.Get().(*[]byte)
	b := append((*bp)[:0], h[:len(h)-1]...) // the head without its '}'
	for _, rep := range repNames {
		if !reps[rep] {
			continue
		}
		n := len(b)
		b = append(b, `,"`...)
		b = append(b, rep...)
		b = append(b, `":`...)
		m := len(b)
		if b = res.AppendJSON(b, rep); len(b) == m+len(`""`) {
			b = b[:n] // omitempty
		}
	}
	if len(t) > len("{}") {
		b = append(b, ',')
		b = append(b, t[1:]...)
	} else {
		b = append(b, '}')
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
	*bp = b
	respBufs.Put(bp)
}

// sloOutcome classifies a terminal HTTP status for the error budget:
// 5xx is the service breaking its promise (shed, timeout, internal),
// everything else in 4xx is the client's spec or request (excluded from
// the denominator so abusive traffic can't burn the budget), 2xx is
// good.
func sloOutcome(status int) slo.Outcome {
	switch {
	case status >= 500:
		return slo.ServerError
	case status >= 400:
		return slo.ClientError
	default:
		return slo.Good
	}
}

// observeRequest is the compile-path handlers' deferred accounting: the
// end-to-end latency lands in the request histogram and the outcome on the
// SLO burn-rate tracker. Every terminal path reports — served, rejected,
// shed, and failed alike — so the histogram shows the latency clients saw,
// not just the flattering subset (a 503 answered in 50µs and a hit
// answered in 2ms are both facts about the service).
func (s *Server) observeRequest(sw *statusWriter, start time.Time) {
	d := time.Since(start)
	s.metrics.request.observe(d)
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	s.slo.Record(sloOutcome(status), d)
}

// exportTrace appends one OTLP/JSON line for the compile's trace when
// the daemon was started with -trace-export. Buffered first so each
// compile lands as a single Write on the shared file.
func (s *Server) exportTrace(tr *trace.Trace) {
	if s.cfg.TraceExport == nil {
		return
	}
	var buf bytes.Buffer
	if err := trace.WriteOTLP(&buf, "bbd", tr); err != nil || buf.Len() == 0 {
		return
	}
	s.exportMu.Lock()
	_, err := s.cfg.TraceExport.Write(buf.Bytes())
	s.exportMu.Unlock()
	if err != nil {
		s.logger.Warn("trace export write failed", "err", err)
	}
}

// handleSLO serves GET /debug/slo: the burn-rate report as JSON.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.slo.Snapshot())
}

// handleProfiles serves the continuous-profiling ring: GET
// /debug/profiles (index) and /debug/profiles/{id} (raw pprof bytes).
// Without -profile-interval the ring doesn't exist and the route 404s.
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if s.profiles == nil {
		httpError(w, http.StatusNotFound, "profiling ring disabled (start bbd with -profile-interval)")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/profiles")
	id = strings.TrimPrefix(id, "/")
	if id == "" {
		s.profiles.ServeIndex(w, r)
		return
	}
	s.profiles.ServeProfile(w, r, id)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Workers reports the resolved worker-pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// InFlight reports compiles currently occupying a worker.
func (s *Server) InFlight() int64 { return s.metrics.inFlight.Value() }
