package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"bristleblocks/internal/core"
	"bristleblocks/internal/scenario"
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
	s.metrics.scenarioRequests.Add(1)
	s.serve(w, r, "POST a {spec, vectors} JSON body to /verify", func(w http.ResponseWriter, c *call) {
		// The body carries a spec and a vector file; both honor the same
		// single-page budget, so the JSON envelope gets twice MaxSpecBytes.
		body, ok := c.readBody(w, 2*s.cfg.MaxSpecBytes, "request")
		if !ok {
			return
		}
		var req VerifyRequest
		if err := json.Unmarshal(body, &req); err != nil {
			s.metrics.scenarioBadVectors.Add(1)
			c.log.Warn("verify request rejected", "err", err)
			httpError(w, http.StatusBadRequest, "parse request: %v", err)
			return
		}
		if err := c.parseSpec(req.Spec); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		scs, err := scenario.Parse(req.Vectors)
		if err != nil {
			s.metrics.scenarioBadVectors.Add(1)
			c.log.Warn("vectors rejected", "err", err)
			httpError(w, http.StatusBadRequest, "parse vectors: %v", err)
			return
		}
		if len(scs) == 0 {
			s.metrics.scenarioBadVectors.Add(1)
			httpError(w, http.StatusBadRequest, "vectors define no scenarios")
			return
		}
		if err := c.parseQuery(); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		defer c.begin()()
		out, ok := c.queue(w, true)
		if !ok || !c.finish(w, out, fmt.Sprintf("verify scenarios=%d ", len(scs))) {
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
		c.log.Info("graded", "key", c.key, "scenarios", len(verdicts), "passed", passed,
			"dur", time.Since(c.start))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&VerifyResponse{
			RequestID: c.id,
			TraceID:   c.link.TraceIDString(),
			Chip:      c.spec.Name,
			Key:       c.key,
			Passed:    passed,
			Verdicts:  verdicts,
			Stats:     out.chip.Stats,
		})
	})
}
