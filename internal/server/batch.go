package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
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
	s.metrics.batchRequests.Add(1)
	s.serve(w, r, `POST a {"specs": [...]} JSON body to /compile/batch`, s.streamBatch)
}

// streamBatch checks an admitted batch and streams one NDJSON line per
// spec.
func (s *Server) streamBatch(w http.ResponseWriter, c *call) {
	body, ok := c.readBody(w, maxBatchBytes, "batch")
	if !ok {
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
	if err := c.parseQuery(); err != nil {
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
	c.log.Info("batch accepted", "specs", len(req.Specs))

	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	// Admission is bounded by queue capacity so a 4096-spec batch doesn't
	// stampede the submit loop; results stream as they land regardless.
	sem := make(chan struct{}, s.cfg.Workers+s.cfg.QueueDepth)
	results := make(chan BatchItem)
	for i, specText := range req.Specs {
		go func(i int, specText string) {
			sem <- struct{}{}
			defer func() { <-sem }()
			results <- s.batchItem(c, i, specText)
		}(i, specText)
	}
	enc := json.NewEncoder(w)
	for range req.Specs {
		item := <-results
		if item.Error != "" {
			s.metrics.batchErrors.Add(1)
		}
		if err := enc.Encode(item); err != nil {
			c.log.Warn("batch stream write failed", "err", err)
		}
		// One flush per line: the client owns each result the moment it
		// completed, not when the batch (or some buffer) fills.
		if flusher != nil {
			flusher.Flush()
		}
	}
	c.log.Info("batch complete", "specs", len(req.Specs), "dur", time.Since(c.start))
}

// batchItem compiles one batch entry as its own call: cache tier,
// coordinator routing, then the local pool — with a patient re-submit loop
// when the queue is briefly full, because a batch line must never be lost
// to transient backpressure. Each spec's trace is a child of the batch's
// inbound trace context (or of a fresh root when the client sent none), so
// every farm hop a spec takes hangs off its own span in the exported trace
// rather than all specs sharing one.
func (s *Server) batchItem(batch *call, index int, specText string) BatchItem {
	item := BatchItem{Index: index}
	if int64(len(specText)) > s.cfg.MaxSpecBytes {
		item.Error = fmt.Sprintf("spec exceeds %d bytes", s.cfg.MaxSpecBytes)
		return item
	}
	c := s.newCall(batch.r, time.Now(), batch.log, "batch_index", index)
	if err := c.parseSpec(specText); err != nil {
		item.Error = err.Error()
		return item
	}
	opts := *batch.opts // begin stamps each item's own copy
	c.opts, c.reps = &opts, batch.reps
	defer c.begin()()
	res, cached := c.lookup()
	if !cached {
		// Coordinator hop: the worker's reply is a complete CompileResponse
		// (already rep-filtered by the forwarded query), errors included.
		if s.coord != nil {
			if status, data, ok := s.coord.compileRemote(c.ctx, c.r.URL.RawQuery, []byte(specText), c.link, c.log); ok {
				s.metrics.batchRemote.Add(1)
				if status == http.StatusOK {
					var cr CompileResponse
					err := json.Unmarshal(data, &cr)
					if err == nil {
						item.Result = &cr
						return item
					}
					c.log.Warn("worker reply unparsable, compiling locally", "err", err)
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
		j := &job{c: c, done: make(chan jobResult, 1)}
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
			case <-c.ctx.Done():
				item.Error = fmt.Sprintf("compile exceeded %v waiting for a worker", s.cfg.Timeout)
				return item
			case <-time.After(batchRetryDelay):
			}
		}
		out := c.await(j)
		if c.settle(out, ""); out.err != nil {
			item.Error = out.err.Error()
			return item
		}
		res, cached = out.res, out.cached
	}
	// Trace payloads are never inlined in batch lines (c.mode stays off);
	// the OTLP export carries them.
	resp := c.response(res, cached)
	fillReps(&resp, res, c.reps)
	item.Result = &resp
	return item
}
