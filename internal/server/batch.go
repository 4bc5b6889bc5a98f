package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"bristleblocks/internal/cache"
	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
	"bristleblocks/internal/obs"
	"bristleblocks/internal/obs/flightrec"
	"bristleblocks/internal/trace"
)

// POST /compile/batch is the farm's bulk front door: N specs in one
// request, one NDJSON line out per spec, written and flushed the moment
// that spec's compile lands — a client watching the stream sees results
// in completion order, not submission order, and reassembles by the index
// field. Each spec rides the same machinery a lone /compile does: the
// shared cache tier first, the coordinator's routing (when this node is
// one), and finally the local queue — where a momentarily full queue
// means the item politely retries rather than being dropped, because a
// batch promises exactly one line per spec. Only admission-time draining
// fails the batch as a whole (503 before any line is written).

// maxBatchSpecs bounds one batch request's spec count.
const maxBatchSpecs = 4096

// maxBatchBytes bounds the batch envelope (the per-spec MaxSpecBytes
// check still applies to each entry).
const maxBatchBytes = 64 << 20

// batchRetryDelay paces one item's re-submit when the local queue is
// momentarily full.
const batchRetryDelay = 2 * time.Millisecond

// BatchRequest is the POST /compile/batch body.
type BatchRequest struct {
	// Specs is the chip descriptions to compile, each a complete .bb text.
	Specs []string `json:"specs"`
}

// BatchItem is one NDJSON line of the batch reply: the index of the spec
// it answers (lines arrive in completion order), and exactly one of
// Result or Error. Error marks that spec's failure — a parse error, a
// compile error, a timeout — never a lost slot: every index appears
// exactly once however many workers died along the way.
type BatchItem struct {
	Index  int              `json:"index"`
	Error  string           `json:"error,omitempty"`
	Result *CompileResponse `json:"result,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.requests.Add(1)
	s.metrics.batchRequests.Add(1)
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, `POST a {"specs": [...]} JSON body to /compile/batch`)
		return
	}
	sw := &statusWriter{ResponseWriter: w}
	w = sw
	defer s.observeRequest(sw, start)

	reqID := obs.NewRequestID()
	w.Header().Set("X-Request-Id", reqID)
	log := s.logger.With("request_id", reqID)

	body, err := io.ReadAll(io.LimitReader(r.Body, maxBatchBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxBatchBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d bytes", maxBatchBytes)
		return
	}
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "parse request: %v", err)
		return
	}
	if len(req.Specs) == 0 {
		httpError(w, http.StatusBadRequest, "batch defines no specs")
		return
	}
	if len(req.Specs) > maxBatchSpecs {
		httpError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d specs", maxBatchSpecs)
		return
	}
	opts, reps, _, err := parseQuery(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Draining is the one whole-batch refusal, decided at admission; once
	// the stream starts, every spec gets its line.
	s.stateMu.RLock()
	draining := s.closed
	s.stateMu.RUnlock()
	if draining {
		s.metrics.rejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, "%v", errDraining)
		return
	}
	s.metrics.batchSpecs.Add(int64(len(req.Specs)))
	log.Info("batch accepted", "specs", len(req.Specs))

	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	// Each spec is a child of the batch's inbound trace context (or of a
	// fresh root when the client sent none), so every farm hop a spec takes
	// hangs off its own span in the exported trace rather than all specs
	// sharing one.
	inbound, hasInbound := trace.ParseTraceparent(r.Header.Get("traceparent"))

	// Admission is bounded by queue capacity so a 4096-spec batch doesn't
	// stampede the submit loop; results stream as they land regardless.
	sem := make(chan struct{}, s.cfg.Workers+s.cfg.QueueDepth)
	results := make(chan BatchItem)
	for i, specText := range req.Specs {
		go func(i int, specText string) {
			sem <- struct{}{}
			defer func() { <-sem }()
			results <- s.batchItem(r, i, specText, opts, reps, inbound, hasInbound, log)
		}(i, specText)
	}
	enc := json.NewEncoder(w)
	for range req.Specs {
		item := <-results
		if item.Error != "" {
			s.metrics.batchErrors.Add(1)
		}
		if err := enc.Encode(item); err != nil {
			log.Warn("batch stream write failed", "err", err)
		}
		// One flush per line: the client owns each result the moment it
		// completed, not when the batch (or some buffer) fills.
		if flusher != nil {
			flusher.Flush()
		}
	}
	log.Info("batch complete", "specs", len(req.Specs), "dur", time.Since(start))
}

// batchItem compiles one batch entry end to end: cache tier, coordinator
// routing, then the local pool — with a patient re-submit loop when the
// queue is briefly full, because a batch line must never be lost to
// transient backpressure.
func (s *Server) batchItem(r *http.Request, index int, specText string, baseOpts *core.Options, reps map[string]bool, inbound trace.SpanContext, hasInbound bool, log *slog.Logger) BatchItem {
	item := BatchItem{Index: index}
	if int64(len(specText)) > s.cfg.MaxSpecBytes {
		item.Error = fmt.Sprintf("spec exceeds %d bytes", s.cfg.MaxSpecBytes)
		return item
	}
	spec, err := desc.Parse(specText)
	if err != nil {
		s.metrics.badSpecs.Add(1)
		item.Error = fmt.Sprintf("parse spec: %v", err)
		return item
	}
	opts := *baseOpts
	opts.Parallelism = s.cfg.Parallelism

	reqID := obs.NewRequestID()
	ilog := log.With("request_id", reqID, "chip", spec.Name, "batch_index", index)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	ctx = obs.WithRequestID(ctx, reqID)
	ctx = obs.WithLogger(ctx, ilog)
	tr := trace.New()
	ctx = trace.WithTrace(ctx, tr)
	var link trace.SpanContext
	if hasInbound {
		link = tr.LinkRemote(inbound)
	} else {
		link = tr.LinkNew()
	}

	key := cache.Key(spec, &opts)
	start := time.Now()
	t0 := time.Now()
	if res, ok := s.cache.GetCtx(ctx, key); ok {
		tr.Lookup(nil, time.Since(t0), true)
		s.metrics.cacheServed.Add(1)
		item.Result = s.batchResponse(reqID, link, res, true, reps)
		return item
	}

	// Coordinator hop: the worker's reply is a complete CompileResponse
	// (already rep-filtered by the forwarded query), errors included.
	if s.coord != nil {
		if status, data, ok := s.coord.compileRemote(ctx, r.URL.RawQuery, []byte(specText), link, ilog); ok {
			s.metrics.batchRemote.Add(1)
			if status == http.StatusOK {
				var cr CompileResponse
				if err := json.Unmarshal(data, &cr); err == nil {
					item.Result = &cr
					return item
				}
				ilog.Warn("worker reply unparsable, compiling locally", "err", err)
			} else {
				var e struct {
					Error string `json:"error"`
				}
				if json.Unmarshal(data, &e) == nil && e.Error != "" {
					item.Error = e.Error
				} else {
					item.Error = fmt.Sprintf("worker answered %d", status)
				}
				return item
			}
		}
	}

	// Local compile, with a patient re-submit loop: errQueueFull is
	// backpressure, not a verdict on this spec.
	j := &job{ctx: ctx, spec: spec, opts: &opts, done: make(chan jobResult, 1)}
	for {
		err := s.submit(j)
		if err == nil {
			break
		}
		if err == errDraining {
			item.Error = err.Error()
			return item
		}
		select {
		case <-ctx.Done():
			item.Error = fmt.Sprintf("compile exceeded %v waiting for a worker", s.cfg.Timeout)
			return item
		case <-time.After(batchRetryDelay):
		}
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
		Options:  fmt.Sprintf("%+v", opts),
		DurUS:    time.Since(start).Microseconds(),
		TraceID:  link.TraceIDString(),
		Allocs:   flightAllocs(out.allocs),
		Spans:    tr.Spans(),
	}, out.err, ctx, r)
	s.exportTrace(tr)
	if out.err != nil {
		item.Error = out.err.Error()
		return item
	}
	item.Result = s.batchResponse(reqID, link, out.res, out.cached, reps)
	return item
}

// batchResponse shapes one batch item's CompileResponse (trace payloads
// are never inlined in batch lines — the OTLP export carries them).
func (s *Server) batchResponse(reqID string, link trace.SpanContext, res *cache.Result, cached bool, reps map[string]bool) *CompileResponse {
	resp := &CompileResponse{
		RequestID: reqID,
		TraceID:   link.TraceIDString(),
		Chip:      res.Chip,
		Key:       res.Key,
		Cached:    cached,
		Stats:     res.Stats,
		TimesUS:   res.TimesUS,
	}
	fillReps(resp, res, reps)
	return resp
}
