package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bristleblocks/internal/incr"
	"bristleblocks/internal/obs"
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
	id    string
	store *incr.Store
	// lastUsed is the Unix-nanosecond time of the last compile (creation
	// until then). A compile writes it holding no lock, and the table
	// reads it under its own mutex for expiry and LRU displacement, so
	// it is atomic.
	lastUsed atomic.Int64
}

func (s *session) touch(now time.Time) { s.lastUsed.Store(now.UnixNano()) }

// sessionTable owns the live sessions and the retired-counter totals.
type sessionTable struct {
	mu      sync.Mutex
	byID    map[string]*session
	max     int
	ttl     time.Duration
	budget  int64 // per-session store byte budget
	created int64 // sessions ever created
	expired int64 // sessions retired by TTL or LRU displacement
	// retired accumulates the counters of every retired session's store
	// (its Entries and Bytes gauges stay 0), so the exported totals are
	// monotonic across session churn.
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
			if lru == nil || s.lastUsed.Load() < lru.lastUsed.Load() {
				lru = s
			}
		}
		t.retireLocked(lru)
	}
	store, err := incr.New(t.budget, "")
	if err != nil {
		return nil, err
	}
	s := &session{id: obs.NewRequestID(), store: store}
	s.touch(now)
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
		if now.UnixNano()-s.lastUsed.Load() > int64(t.ttl) {
			t.retireLocked(s)
		}
	}
}

// retireLocked folds s's store counters into the retired totals and drops
// s. A compile still running on s keeps counting into s.store: those hits
// and misses reach that compile's own "incr" reply, but not the daemon's
// bbd_incr_* totals, which took s's counters here.
func (t *sessionTable) retireLocked(s *session) {
	c := s.store.Counters()
	c.Entries, c.Bytes = 0, 0 // gauges: totals counts live stores only
	t.retired.Add(c)
	t.expired++
	delete(t.byID, s.id)
}

// totals aggregates retired and live counters (monotonic except
// Entries/Bytes, which describe only live stores) plus session gauges.
func (t *sessionTable) totals() (incr.Counters, int64, int64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := t.retired
	for _, s := range t.byID {
		sum.Add(s.store.Counters())
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
		const usage = "POST a chip description to /session/{id}/compile"
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, usage)
			return
		}
		sess, ok := s.sessions.get(id, time.Now())
		if !ok {
			httpError(w, http.StatusNotFound, "no session %q (sessions expire after %v idle)", id, s.sessions.ttl)
			return
		}
		s.serve(w, r, usage, func(w http.ResponseWriter, c *call) {
			s.sessionCompile(w, c, sess)
		}, "session_id", sess.id)
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

// sessionCompile answers one session compile. Unlike /compile, the work
// runs on the handler goroutine: the warm store makes edits cheap enough
// that a queue slot would cost more than the compile, and the whole-spec
// cache is deliberately bypassed (it would hide the store). The compile
// still honors the daemon timeout and is flight-recorded.
func (s *Server) sessionCompile(w http.ResponseWriter, c *call, sess *session) {
	body, ok := c.readBody(w, s.cfg.MaxSpecBytes, "spec")
	if !ok {
		return
	}
	if err := c.parse(string(body)); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer c.begin()()

	// A reply that carries no representation but CIF needs only the
	// layout, so the compile skips the others. Stats does not depend on
	// them, and the key and flight record keep the options as asked.
	opts := c.opts
	if cifOnly(c.reps) {
		o := *c.opts
		o.SkipExtraReps = true
		opts = &o
	}
	// A session result is never cached, so its CIF stays in a pooled
	// buffer, from which the reply is written, instead of an exact-length
	// copy for the cache's byte accounting.
	cifBuf := respBufs.Get().(*[]byte)
	defer respBufs.Put(cifBuf)
	before := sess.store.Counters()
	out := c.build(incr.WithStore(c.ctx, sess.store), opts, cifBuf)
	after := sess.store.Counters()
	sess.touch(time.Now())
	s.metrics.sessionCompiles.Add(1)
	if !c.finish(w, out, "session="+sess.id+" ") {
		return
	}

	resp := c.response(out.res, false)
	resp.Incr = &IncrCounters{
		Hits:          after.Hits - before.Hits,
		Misses:        after.Misses - before.Misses,
		Invalidations: after.Invalidations - before.Invalidations,
		Evictions:     after.Evictions - before.Evictions,
		Entries:       after.Entries,
		Bytes:         after.Bytes,
		HitRatio:      sess.store.HitRatio(),
	}
	c.log.Info("session compiled",
		"incr_hits", resp.Incr.Hits,
		"incr_misses", resp.Incr.Misses,
		"incr_invalidations", resp.Incr.Invalidations,
		"dur", time.Since(c.start))
	writeCompileResponse(w, &resp, out.res, c.reps)
}

// cifOnly reports whether a reply with representations reps carries
// nothing but (at most) the CIF.
func cifOnly(reps map[string]bool) bool {
	return len(reps) == 0 || len(reps) == 1 && reps["cif"]
}
