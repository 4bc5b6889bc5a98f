package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"bristleblocks/internal/cache"
	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
	"bristleblocks/internal/obs"
	"bristleblocks/internal/obs/flightrec"
	"bristleblocks/internal/scenario"
	"bristleblocks/internal/trace"
)

// VerifyRequest is the POST /verify body: a chip description plus a
// scenario file in the .sv vector format (see internal/scenario). Every
// scenario in Vectors is graded against the compiled chip.
type VerifyRequest struct {
	Spec    string `json:"spec"`
	Vectors string `json:"vectors"`
}

// VerifyResponse is the /verify reply: one graded verdict per scenario,
// in file order, plus the chip statistics the design scores derive from.
// Passed is true only when every scenario graded 100% functional. The
// verdict list is byte-identical for the same spec and vectors whether
// graded here or in process, at any worker-pool size.
type VerifyResponse struct {
	RequestID string `json:"request_id"`
	// TraceID joins this grading run onto the caller's distributed trace
	// (or the daemon's freshly minted one).
	TraceID  string             `json:"trace_id,omitempty"`
	Chip     string             `json:"chip"`
	Key      string             `json:"key"`
	Passed   bool               `json:"passed"`
	Verdicts []scenario.Verdict `json:"verdicts"`
	Stats    core.Stats         `json:"stats"`
}

// handleVerify serves POST /verify: spec and vectors in, graded verdicts
// out. The compile rides the same bounded worker pool as /compile — a
// full queue sheds with 503, the request deadline reaches mid-pass — and
// grading runs on the handler goroutine (microseconds against a compile).
// Malformed vectors are a client error (400, counted in
// scenario_bad_vectors); a scenario whose expectations fail is a 200 with
// the failures itemized in its verdict — grading is the service working.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.requests.Add(1)
	s.metrics.scenarioRequests.Add(1)
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a {spec, vectors} JSON body to /verify")
		return
	}
	sw := &statusWriter{ResponseWriter: w}
	w = sw
	defer s.observeRequest(sw, start)

	reqID := obs.NewRequestID()
	w.Header().Set("X-Request-Id", reqID)
	log := s.logger.With("request_id", reqID)

	// The body carries a spec and a vector file; both honor the same
	// single-page budget, so the JSON envelope gets twice MaxSpecBytes.
	limit := 2 * s.cfg.MaxSpecBytes
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > limit {
		httpError(w, http.StatusRequestEntityTooLarge, "request exceeds %d bytes", limit)
		return
	}
	var req VerifyRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.metrics.scenarioBadVectors.Add(1)
		log.Warn("verify request rejected", "err", err)
		httpError(w, http.StatusBadRequest, "parse request: %v", err)
		return
	}
	spec, err := desc.Parse(req.Spec)
	if err != nil {
		s.metrics.badSpecs.Add(1)
		log.Warn("spec rejected", "err", err)
		httpError(w, http.StatusBadRequest, "parse spec: %v", err)
		return
	}
	scs, err := scenario.Parse(req.Vectors)
	if err != nil {
		s.metrics.scenarioBadVectors.Add(1)
		log.Warn("vectors rejected", "err", err)
		httpError(w, http.StatusBadRequest, "parse vectors: %v", err)
		return
	}
	if len(scs) == 0 {
		s.metrics.scenarioBadVectors.Add(1)
		httpError(w, http.StatusBadRequest, "vectors define no scenarios")
		return
	}
	log = log.With("chip", spec.Name)
	opts, _, _, err := parseQuery(r)
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

	key := cache.Key(spec, opts)
	j := &job{ctx: ctx, spec: spec, opts: opts, verify: true, done: make(chan jobResult, 1)}
	if err := s.submit(j); err != nil {
		s.metrics.rejected.Add(1)
		log.Warn("request shed", "err", err, "queue_depth", len(s.jobs))
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	var out jobResult
	select {
	case out = <-j.done:
	case <-ctx.Done():
		out = jobResult{err: ctx.Err()}
	}
	s.recordFlight(flightrec.Record{
		ID:       reqID,
		Start:    start,
		Chip:     spec.Name,
		SpecHash: key,
		Options:  fmt.Sprintf("verify scenarios=%d %+v", len(scs), *opts),
		DurUS:    time.Since(start).Microseconds(),
		TraceID:  link.TraceIDString(),
		Allocs:   flightAllocs(out.allocs),
		Spans:    tr.Spans(),
	}, out.err, ctx, r)
	s.exportTrace(tr)
	if out.err != nil {
		switch {
		case ctx.Err() != nil && r.Context().Err() == nil:
			s.metrics.timeouts.Add(1)
			log.Warn("verify compile timed out", "key", key, "timeout", s.cfg.Timeout)
			httpError(w, http.StatusGatewayTimeout, "compile exceeded %v", s.cfg.Timeout)
		case ctx.Err() != nil:
			log.Info("request canceled by client", "key", key)
			httpError(w, http.StatusRequestTimeout, "request canceled")
		default:
			s.metrics.compileErrors.Add(1)
			log.Warn("verify compile failed", "key", key, "err", out.err)
			httpError(w, http.StatusUnprocessableEntity, "compile: %v", out.err)
		}
		return
	}

	t0 := time.Now()
	verdicts := scenario.GradeAll(out.chip, scs)
	s.metrics.observeScenarios(time.Since(t0), verdicts)
	passed := true
	for i := range verdicts {
		if !verdicts[i].Passed100() {
			passed = false
		}
	}

	log.Info("graded", "key", key, "scenarios", len(verdicts), "passed", passed,
		"dur", time.Since(start))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&VerifyResponse{
		RequestID: reqID,
		TraceID:   link.TraceIDString(),
		Chip:      spec.Name,
		Key:       key,
		Passed:    passed,
		Verdicts:  verdicts,
		Stats:     out.chip.Stats,
	})
}
