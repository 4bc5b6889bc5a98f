package server

import (
	"bytes"
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

// The compile endpoints — /compile, /compile/batch, /verify and
// /session/{id}/compile — share one request lifecycle: admission (serve),
// body read, spec and query parse, the traced deadline context (begin),
// the one counted cache lookup, the worker queue, and the flight record,
// trace export and failure reply (finish). Each handler strings these
// steps together around the code that is its own.

// A call is one compile request on its way through the lifecycle. A batch
// is one call for the stream and one per spec.
type call struct {
	s     *Server
	r     *http.Request
	id    string
	start time.Time
	log   *slog.Logger

	// What the request asks for: set by parseSpec and parseQuery.
	spec *core.Spec
	opts *core.Options
	reps map[string]bool // ?reps=
	mode traceMode       // ?trace=

	// Set by begin.
	key  string
	ctx  context.Context
	tr   *trace.Trace
	link trace.SpanContext
}

// serve admits a request to a compile endpoint: it counts it, refuses any
// method but POST with usage, stamps X-Request-Id, and once handle returns
// reports the status and latency to the request histogram and the SLO
// tracker. attrs go on the call's logger after its request_id.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, usage string, handle func(http.ResponseWriter, *call), attrs ...any) {
	start := time.Now()
	s.metrics.requests.Add(1)
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "%s", usage)
		return
	}
	sw := &statusWriter{ResponseWriter: w}
	defer s.observeRequest(sw, start)
	c := s.newCall(r, start, s.logger, attrs...)
	sw.Header().Set("X-Request-Id", c.id)
	handle(sw, c)
}

// newCall starts a call under a fresh request id, logging through log.
func (s *Server) newCall(r *http.Request, start time.Time, log *slog.Logger, attrs ...any) *call {
	id := obs.NewRequestID()
	return &call{s: s, r: r, id: id, start: start, log: log.With(append([]any{"request_id", id}, attrs...)...)}
}

// readBody reads the request body, answering 413 naming what when it
// exceeds limit bytes.
func (c *call) readBody(w http.ResponseWriter, limit int64, what string) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(c.r.Body, limit+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return nil, false
	}
	if int64(len(body)) > limit {
		httpError(w, http.StatusRequestEntityTooLarge, "%s exceeds %d bytes", what, limit)
		return nil, false
	}
	return body, true
}

// parseSpec parses the call's spec; a rejection is counted, logged, and
// returned as the client's error text.
func (c *call) parseSpec(text string) error {
	spec, err := desc.Parse(text)
	if err != nil {
		c.s.metrics.badSpecs.Add(1)
		c.log.Warn("spec rejected", "err", err)
		return fmt.Errorf("parse spec: %v", err)
	}
	c.spec = spec
	c.log = c.log.With("chip", spec.Name)
	return nil
}

// parse reads a spec body's text, then the query, into the call.
func (c *call) parse(text string) error {
	if err := c.parseSpec(text); err != nil {
		return err
	}
	return c.parseQuery()
}

// begin readies a parsed call for the compiler: its options (with the
// daemon's Pass 1 width), its cache key, and its deadline context carrying
// the request id, logger and trace. Every call that gets this far is
// traced, not just those that asked, because the flight recorder keeps
// the span tree for requests nobody knew would be interesting. An inbound
// W3C traceparent joins the compile onto the caller's distributed trace;
// otherwise the daemon mints a fresh one. The caller must call the
// returned cancel.
func (c *call) begin() context.CancelFunc {
	c.opts.Parallelism = c.s.cfg.Parallelism
	c.key = cache.Key(c.spec, c.opts)
	ctx, cancel := context.WithTimeout(c.r.Context(), c.s.cfg.Timeout)
	ctx = obs.WithRequestID(ctx, c.id)
	ctx = obs.WithLogger(ctx, c.log)
	c.tr = trace.New()
	c.ctx = trace.WithTrace(ctx, c.tr)
	c.link = c.tr.LinkFromHeader(c.r.Header.Get("traceparent"))
	return cancel
}

// lookup is the call's one counted cache lookup — memory, disk, then the
// key's owning peer, bounded by the call's context — which GetCtx records
// as the call's cache.lookup span whatever the outcome.
func (c *call) lookup() (*cache.Result, bool) {
	res, ok := c.s.cache.GetCtx(c.ctx, c.key)
	if ok {
		c.s.metrics.cacheServed.Add(1)
	}
	return res, ok
}

// queue hands the call to the worker pool and waits for its result. verify
// marks a /verify compile: the worker compiles directly (the cache stores
// serialized artifacts, not the live chip the grader needs) and hands the
// chip back in jobResult.chip. A draining or full queue sheds the call
// with 503.
func (c *call) queue(w http.ResponseWriter, verify bool) (jobResult, bool) {
	j := &job{c: c, verify: verify, done: make(chan jobResult, 1)}
	if err := c.s.submit(j); err != nil {
		c.s.metrics.rejected.Add(1)
		c.log.Warn("request shed", "err", err, "queue_depth", len(c.s.jobs))
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return jobResult{}, false
	}
	return c.await(j), true
}

// await waits for a submitted job's result or the call's deadline. The
// worker (or the queue scan) observes the same context and abandons the
// compile; nobody blocks on the buffered done chan.
func (c *call) await(j *job) jobResult {
	select {
	case out := <-j.done:
		return out
	case <-c.ctx.Done():
		return jobResult{err: c.ctx.Err()}
	}
}

// build runs the three passes on the call's spec under opts and renders
// the representations the compile produced, under the call's key. With a
// nil cifBuf the result is storable (cache.Render); otherwise its CIF is
// rendered into *cifBuf and aliases it (cache.RenderTo), for a reply that
// is written once and never cached.
func (c *call) build(ctx context.Context, opts *core.Options, cifBuf *[]byte) jobResult {
	chip, err := core.CompileCtx(ctx, c.spec, opts)
	if err != nil {
		return jobResult{err: err}
	}
	var res *cache.Result
	if cifBuf == nil {
		res, err = cache.Render(chip)
	} else {
		res, err = cache.RenderTo(chip, cifBuf)
	}
	if err != nil {
		return jobResult{err: err}
	}
	res.Key = c.key
	return jobResult{res: res, chip: chip}
}

// outcome classifies how the call's compile ended: a deadline that fired
// while the client was still waiting is a timeout, any other end of the
// context is the client's cancel, and any other error is the compile's.
func (c *call) outcome(err error) string {
	switch {
	case err == nil:
		return flightrec.OutcomeOK
	case c.ctx.Err() != nil && c.r.Context().Err() == nil:
		return flightrec.OutcomeTimeout
	case c.ctx.Err() != nil:
		return flightrec.OutcomeCanceled
	default:
		return flightrec.OutcomeError
	}
}

// settle closes a compile that reached the compiler: it files the flight
// record (its options prefixed by what), exports the trace, and counts
// and logs a failure by its outcome. A failure returns the HTTP status
// and error text its outcome maps to; success returns 0.
func (c *call) settle(out jobResult, what string) (int, string) {
	outcome := c.outcome(out.err)
	rec := flightrec.Record{
		ID:       c.id,
		Start:    c.start,
		Chip:     c.spec.Name,
		SpecHash: c.key,
		Options:  what + fmt.Sprintf("%+v", *c.opts),
		Outcome:  outcome,
		DurUS:    time.Since(c.start).Microseconds(),
		TraceID:  c.link.TraceIDString(),
		Spans:    c.tr.Spans(),
	}
	if out.err != nil {
		rec.Error = out.err.Error()
	}
	if out.chip != nil {
		// A copy: the ring must not keep the whole chip alive.
		ph := out.chip.Phases
		rec.Allocs = &ph
	}
	c.s.flight.Add(rec)
	c.s.exportTrace(c.tr)
	switch outcome {
	case flightrec.OutcomeOK:
		return 0, ""
	case flightrec.OutcomeTimeout:
		c.s.metrics.timeouts.Add(1)
		c.log.Warn("compile timed out", "key", c.key, "timeout", c.s.cfg.Timeout)
		return http.StatusGatewayTimeout, fmt.Sprintf("compile exceeded %v", c.s.cfg.Timeout)
	case flightrec.OutcomeCanceled:
		// Client went away; the status is a formality.
		c.log.Info("request canceled by client", "key", c.key)
		return http.StatusRequestTimeout, "request canceled"
	default:
		c.s.metrics.compileErrors.Add(1)
		c.log.Warn("compile failed", "key", c.key, "err", out.err)
		return http.StatusUnprocessableEntity, "compile: " + out.err.Error()
	}
}

// finish settles out and answers a failure. It reports whether the
// compile succeeded.
func (c *call) finish(w http.ResponseWriter, out jobResult, what string) bool {
	status, msg := c.settle(out, what)
	if status != 0 {
		httpError(w, status, "%s", msg)
	}
	return status == 0
}

// response is the call's reply for res, without representations, carrying
// the span tree as ?trace= asked.
func (c *call) response(res *cache.Result, cached bool) CompileResponse {
	resp := CompileResponse{
		RequestID: c.id,
		TraceID:   c.link.TraceIDString(),
		Chip:      res.Chip,
		Key:       res.Key,
		Cached:    cached,
		Stats:     res.Stats,
		TimesUS:   res.TimesUS,
	}
	switch c.mode {
	case traceSpans:
		resp.Trace = c.tr.Spans()
	case traceChrome:
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, c.tr.Spans()); err == nil {
			resp.TraceEvents = json.RawMessage(buf.Bytes())
		}
	}
	return resp
}
