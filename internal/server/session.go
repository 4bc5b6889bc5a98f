package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"bristleblocks/internal/cache"
	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
	"bristleblocks/internal/incr"
	"bristleblocks/internal/obs"
	"bristleblocks/internal/obs/flightrec"
	"bristleblocks/internal/trace"
)

// The session workload: an interactive client (an editor plugin, a
// bristlec -watch loop) holds a warm per-session artifact store and
// re-submits its spec after every edit. Where /compile's cache is
// all-or-nothing over the whole spec, a session compile reuses every
// unchanged cell artifact and pays only for the delta — the paper's
// procedural cell decomposition working as a memoization boundary.
//
//	POST   /session              -> {"session_id": ...}
//	POST   /session/{id}/compile -> CompileResponse (+ "incr" counters)
//	DELETE /session/{id}         -> 204
//
// Sessions expire TTL after their last compile; expired and evicted
// sessions fold their counters into the daemon totals so bbd_incr_*
// metrics never go backward.

// sessionDefaults mirror Config semantics: <=0 selects the default.
const (
	defaultMaxSessions    = 16
	defaultSessionTTL     = 15 * time.Minute
	defaultSessionCacheMB = 64
)

type session struct {
	id      string
	store   *incr.Store
	created time.Time

	mu       sync.Mutex
	lastUsed time.Time
	compiles int64
}

func (s *session) touch(now time.Time) {
	s.mu.Lock()
	s.lastUsed = now
	s.compiles++
	s.mu.Unlock()
}

// sessionTable owns the live sessions and the retired-counter totals.
type sessionTable struct {
	mu      sync.Mutex
	byID    map[string]*session
	max     int
	ttl     time.Duration
	budget  int64 // per-session store byte budget
	created int64 // sessions ever created
	expired int64 // sessions retired by TTL or LRU displacement
	// retired accumulates the counters of every retired session's store,
	// so the exported totals are monotonic across session churn.
	retired incr.Counters
}

func newSessionTable(max int, ttl time.Duration, cacheMB int) *sessionTable {
	if max <= 0 {
		max = defaultMaxSessions
	}
	if ttl <= 0 {
		ttl = defaultSessionTTL
	}
	if cacheMB <= 0 {
		cacheMB = defaultSessionCacheMB
	}
	return &sessionTable{
		byID:   make(map[string]*session),
		max:    max,
		ttl:    ttl,
		budget: int64(cacheMB) << 20,
	}
}

// create registers a fresh session, first expiring stale ones and, at
// capacity, retiring the least recently used.
func (t *sessionTable) create(now time.Time) (*session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(now)
	if len(t.byID) >= t.max {
		var lru *session
		for _, s := range t.byID {
			if lru == nil || s.lastUsed.Before(lru.lastUsed) {
				lru = s
			}
		}
		t.retireLocked(lru)
	}
	store, err := incr.New(t.budget, "")
	if err != nil {
		return nil, err
	}
	s := &session{
		id:      obs.NewRequestID(),
		store:   store,
		created: now, lastUsed: now,
	}
	t.byID[s.id] = s
	t.created++
	return s, nil
}

// get returns a live session, expiring stale ones on the way (the table
// has no background goroutine; eviction is lazy, on the request path).
func (t *sessionTable) get(id string, now time.Time) (*session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(now)
	s, ok := t.byID[id]
	return s, ok
}

// remove retires a session by id (DELETE /session/{id}).
func (t *sessionTable) remove(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.byID[id]
	if ok {
		t.retireLocked(s)
	}
	return ok
}

func (t *sessionTable) expireLocked(now time.Time) {
	for _, s := range t.byID {
		if now.Sub(s.lastUsed) > t.ttl {
			t.retireLocked(s)
		}
	}
}

func (t *sessionTable) retireLocked(s *session) {
	c := s.store.Counters()
	t.retired.Hits += c.Hits
	t.retired.Misses += c.Misses
	t.retired.Evictions += c.Evictions
	t.retired.Invalidations += c.Invalidations
	t.retired.DiskHits += c.DiskHits
	t.expired++
	delete(t.byID, s.id)
}

// totals aggregates retired and live counters (monotonic except
// Entries/Bytes, which describe only live stores) plus session gauges.
func (t *sessionTable) totals() (incr.Counters, int64, int64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := t.retired
	sum.Entries, sum.Bytes = 0, 0
	for _, s := range t.byID {
		c := s.store.Counters()
		sum.Hits += c.Hits
		sum.Misses += c.Misses
		sum.Evictions += c.Evictions
		sum.Invalidations += c.Invalidations
		sum.DiskHits += c.DiskHits
		sum.Entries += c.Entries
		sum.Bytes += c.Bytes
	}
	return sum, t.created, t.expired, len(t.byID)
}

// IncrCounters is the per-session artifact-store snapshot a session
// compile reports back to its client.
type IncrCounters struct {
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Invalidations int64   `json:"invalidations"`
	Evictions     int64   `json:"evictions"`
	Entries       int     `json:"entries"`
	Bytes         int64   `json:"bytes"`
	HitRatio      float64 `json:"hit_ratio"`
}

// SessionResponse is the POST /session reply.
type SessionResponse struct {
	SessionID  string `json:"session_id"`
	TTLSeconds int64  `json:"ttl_seconds"`
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	rest, hasRest := strings.CutPrefix(r.URL.Path, "/session/")
	switch {
	case !hasRest || rest == "":
		// POST /session — create.
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST /session to open a session")
			return
		}
		sess, err := s.sessions.create(time.Now())
		if err != nil {
			httpError(w, http.StatusInternalServerError, "session: %v", err)
			return
		}
		s.logger.Info("session opened", "session_id", sess.id)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(SessionResponse{
			SessionID:  sess.id,
			TTLSeconds: int64(s.sessions.ttl / time.Second),
		})
	case strings.HasSuffix(rest, "/compile"):
		id := strings.TrimSuffix(rest, "/compile")
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST a chip description to /session/{id}/compile")
			return
		}
		sess, ok := s.sessions.get(id, time.Now())
		if !ok {
			httpError(w, http.StatusNotFound, "no session %q (sessions expire after %v idle)", id, s.sessions.ttl)
			return
		}
		s.handleSessionCompile(w, r, sess)
	default:
		// DELETE /session/{id} — retire.
		if r.Method != http.MethodDelete {
			httpError(w, http.StatusMethodNotAllowed, "DELETE /session/{id} to close a session")
			return
		}
		if !s.sessions.remove(rest) {
			httpError(w, http.StatusNotFound, "no session %q", rest)
			return
		}
		s.logger.Info("session closed", "session_id", rest)
		w.WriteHeader(http.StatusNoContent)
	}
}

// handleSessionCompile answers one session compile. Unlike /compile, the
// work runs on the handler goroutine: the warm store makes edits cheap
// enough that a queue slot would cost more than the compile, and the
// whole-spec cache is deliberately bypassed (it would hide the store).
// The compile still honors the daemon timeout and is flight-recorded.
func (s *Server) handleSessionCompile(w http.ResponseWriter, r *http.Request, sess *session) {
	start := time.Now()
	s.metrics.requests.Add(1)
	sw := &statusWriter{ResponseWriter: w}
	w = sw
	defer s.observeRequest(sw, start)

	reqID := obs.NewRequestID()
	w.Header().Set("X-Request-Id", reqID)
	log := s.logger.With("request_id", reqID, "session_id", sess.id)

	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxSpecBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.MaxSpecBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", s.cfg.MaxSpecBytes)
		return
	}
	spec, err := desc.Parse(string(body))
	if err != nil {
		s.metrics.badSpecs.Add(1)
		log.Warn("spec rejected", "err", err)
		httpError(w, http.StatusBadRequest, "parse spec: %v", err)
		return
	}
	log = log.With("chip", spec.Name)
	opts, reps, traceMode, err := parseQuery(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts.Parallelism = s.cfg.Parallelism

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	ctx = obs.WithRequestID(ctx, reqID)
	ctx = obs.WithLogger(ctx, log)
	tr := trace.New()
	ctx = trace.WithTrace(ctx, tr)
	link := tr.LinkFromHeader(r.Header.Get("traceparent"))
	ctx = incr.WithStore(ctx, sess.store)

	before := sess.store.Counters()
	chip, err := core.CompileCtx(ctx, spec, opts)
	var res *cache.Result
	if err == nil {
		res, err = cache.Render(chip)
	}
	after := sess.store.Counters()
	sess.touch(time.Now())
	s.metrics.sessionCompiles.Add(1)
	var allocs *core.CompileAllocs
	if chip != nil && err == nil {
		s.metrics.observeAllocs(chip.Allocs)
		allocs = &chip.Allocs
	}
	s.recordFlight(flightrec.Record{
		ID:       reqID,
		Start:    start,
		Chip:     spec.Name,
		SpecHash: cache.Key(spec, opts),
		Options:  fmt.Sprintf("session=%s %+v", sess.id, *opts),
		DurUS:    time.Since(start).Microseconds(),
		TraceID:  link.TraceIDString(),
		Allocs:   flightAllocs(allocs),
		Spans:    tr.Spans(),
	}, err, ctx, r)
	s.exportTrace(tr)
	if err != nil {
		switch {
		case ctx.Err() != nil && r.Context().Err() == nil:
			s.metrics.timeouts.Add(1)
			log.Warn("session compile timed out", "timeout", s.cfg.Timeout)
			httpError(w, http.StatusGatewayTimeout, "compile exceeded %v", s.cfg.Timeout)
		case ctx.Err() != nil:
			log.Info("session request canceled by client")
			httpError(w, http.StatusRequestTimeout, "request canceled")
		default:
			s.metrics.compileErrors.Add(1)
			log.Warn("session compile failed", "err", err)
			httpError(w, http.StatusUnprocessableEntity, "compile: %v", err)
		}
		return
	}

	resp := &CompileResponse{
		RequestID: reqID,
		TraceID:   link.TraceIDString(),
		Chip:      res.Chip,
		Key:       cache.Key(spec, opts),
		Stats:     res.Stats,
		TimesUS:   res.TimesUS,
		Incr: &IncrCounters{
			Hits:          after.Hits - before.Hits,
			Misses:        after.Misses - before.Misses,
			Invalidations: after.Invalidations - before.Invalidations,
			Evictions:     after.Evictions - before.Evictions,
			Entries:       after.Entries,
			Bytes:         after.Bytes,
			HitRatio:      sess.store.HitRatio(),
		},
	}
	switch traceMode {
	case traceSpans:
		resp.Trace = tr.Spans()
	case traceChrome:
		var buf strings.Builder
		if err := trace.WriteChrome(&buf, tr.Spans()); err == nil {
			resp.TraceEvents = json.RawMessage(buf.String())
		}
	}
	log.Info("session compiled",
		"incr_hits", resp.Incr.Hits,
		"incr_misses", resp.Incr.Misses,
		"incr_invalidations", resp.Incr.Invalidations,
		"dur", time.Since(start))
	writeCompileResponse(w, resp, res, reps)
}
