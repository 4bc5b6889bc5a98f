package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"bristleblocks/internal/obs/flightrec"
)

// outcomeReply is what one compile endpoint answered, normalized so the
// batch stream's per-line verdict and an HTTP endpoint's status and body
// compare the same way.
type outcomeReply struct {
	status int    // HTTP status; a batch line reports 200 for a result, 0 for an error
	err    string // the error text: the JSON "error" field, or the batch line's
	id     string // the request id the compile is filed under
	trace  string // the response's trace_id
}

// outcomeEndpoint posts one spec to a compile endpoint with an optional
// inbound traceparent header.
type outcomeEndpoint struct {
	name string
	post func(t *testing.T, base, spec, traceparent string) outcomeReply
}

func doPost(t *testing.T, url, ctype string, body []byte, traceparent string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctype)
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// httpReply decodes a single-document compile or verify reply.
func httpReply(t *testing.T, resp *http.Response) outcomeReply {
	t.Helper()
	defer resp.Body.Close()
	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
		TraceID   string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding reply (status %d): %v", resp.StatusCode, err)
	}
	id := resp.Header.Get("X-Request-Id")
	if body.RequestID != "" && body.RequestID != id {
		t.Fatalf("X-Request-Id %q but body request_id %q", id, body.RequestID)
	}
	return outcomeReply{status: resp.StatusCode, err: body.Error, id: id, trace: body.TraceID}
}

var outcomeEndpoints = []outcomeEndpoint{
	{"compile", func(t *testing.T, base, spec, tp string) outcomeReply {
		return httpReply(t, doPost(t, base+"/compile", "text/plain", []byte(spec), tp))
	}},
	// /verify carries its spec inside a JSON envelope, so its oversized
	// case is an envelope over twice MaxSpecBytes ("request exceeds"), and
	// every case sends vectors that parse: the outcomes under test are
	// the spec's and the compile's, not the grader's. No case is skipped.
	{"verify", func(t *testing.T, base, spec, tp string) outcomeReply {
		body, _ := json.Marshal(VerifyRequest{Spec: spec, Vectors: "scenario s\nstep nop | A=1"})
		return httpReply(t, doPost(t, base+"/verify", "application/json", body, tp))
	}},
	{"session", func(t *testing.T, base, spec, tp string) outcomeReply {
		sid := openSession(t, base).SessionID
		return httpReply(t, doPost(t, base+"/session/"+sid+"/compile", "text/plain", []byte(spec), tp))
	}},
	{"batch", func(t *testing.T, base, spec, tp string) outcomeReply {
		body, _ := json.Marshal(BatchRequest{Specs: []string{spec}})
		resp := doPost(t, base+"/compile/batch", "application/json", body, tp)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch answered %d", resp.StatusCode)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var item BatchItem
		if err := json.Unmarshal(data, &item); err != nil {
			t.Fatalf("batch line %q: %v", data, err)
		}
		if item.Error != "" {
			return outcomeReply{err: item.Error}
		}
		return outcomeReply{status: http.StatusOK, id: item.Result.RequestID, trace: item.Result.TraceID}
	}},
}

// outcomeCounters are the per-outcome counters every compile endpoint
// moves.
type outcomeCounters struct{ badSpecs, compileErrors, timeouts int64 }

func readOutcomeCounters(s *Server) outcomeCounters {
	return outcomeCounters{s.metrics.badSpecs.Value(), s.metrics.compileErrors.Value(), s.metrics.timeouts.Value()}
}

// TestEndpointOutcomes drives every compile endpoint through every way a
// request can end — oversized body, unparsable spec, failing compile,
// deadline, success — and checks that each endpoint answers, counts and
// flight-records it the same way.
func TestEndpointOutcomes(t *testing.T) {
	const maxSpec = 16 << 10
	s, ts := newTestServer(t, Config{MaxSpecBytes: maxSpec})
	// A deadline that has passed before the compile starts. The hook
	// holds queued jobs until it fires, as in TestTimeoutReturnsPromptly;
	// a session compiles on the handler and finds the deadline already
	// expired.
	late, lateTS := newTestServer(t, Config{
		MaxSpecBytes:  maxSpec,
		Timeout:       time.Nanosecond,
		BeforeCompile: func(ctx context.Context) { <-ctx.Done() },
	})

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	tp := "00-" + traceID + "-00f067aa0ba902b7-01"
	oversized := "chip big\n" + strings.Repeat("# padding\n", 3*maxSpec/10)

	// newest returns the flight record of the request just answered.
	newest := func(t *testing.T, srv *Server, rep outcomeReply) flightrec.Record {
		t.Helper()
		recs := srv.flight.Records()
		if len(recs) == 0 {
			t.Fatal("no flight record")
		}
		if rep.id != "" && recs[0].ID != rep.id {
			t.Fatalf("newest flight record %q, want the request's %q", recs[0].ID, rep.id)
		}
		return recs[0]
	}

	for i, ep := range outcomeEndpoints {
		batch := ep.name == "batch"
		t.Run(ep.name, func(t *testing.T) {
			t.Run("oversized", func(t *testing.T) {
				rep := ep.post(t, ts.URL, oversized, "")
				want, status := fmt.Sprintf("spec exceeds %d bytes", maxSpec), http.StatusRequestEntityTooLarge
				switch ep.name {
				case "verify":
					want = fmt.Sprintf("request exceeds %d bytes", 2*maxSpec)
				case "batch":
					status = 0
				}
				if rep.status != status || rep.err != want {
					t.Fatalf("got %d %q, want %d %q", rep.status, rep.err, status, want)
				}
			})
			t.Run("unparsable", func(t *testing.T) {
				c0 := readOutcomeCounters(s)
				rep := ep.post(t, ts.URL, "this is not a chip", "")
				status := http.StatusBadRequest
				if batch {
					status = 0
				}
				if rep.status != status || !strings.HasPrefix(rep.err, "parse spec: ") {
					t.Fatalf("got %d %q, want %d parse spec: ...", rep.status, rep.err, status)
				}
				if d := readOutcomeCounters(s); d != (outcomeCounters{c0.badSpecs + 1, c0.compileErrors, c0.timeouts}) {
					t.Fatalf("counters %+v -> %+v, want bad_specs +1 only", c0, d)
				}
			})
			t.Run("compile error", func(t *testing.T) {
				c0 := readOutcomeCounters(s)
				rep := ep.post(t, ts.URL, failingSpec, "")
				status, prefix := http.StatusUnprocessableEntity, "compile: "
				if batch {
					status, prefix = 0, ""
				}
				if rep.status != status || !strings.HasPrefix(rep.err, prefix) || rep.err == prefix {
					t.Fatalf("got %d %q, want %d %q...", rep.status, rep.err, status, prefix)
				}
				if d := readOutcomeCounters(s); d != (outcomeCounters{c0.badSpecs, c0.compileErrors + 1, c0.timeouts}) {
					t.Fatalf("counters %+v -> %+v, want compile_errors +1 only", c0, d)
				}
				if rec := newest(t, s, rep); rec.Outcome != flightrec.OutcomeError || rec.Chip != "doomed" || rec.Error == "" {
					t.Fatalf("flight record %+v, want outcome error for doomed", rec)
				}
			})
			t.Run("deadline", func(t *testing.T) {
				c0 := readOutcomeCounters(late)
				rep := ep.post(t, lateTS.URL, specText(i+1), "")
				status, want := http.StatusGatewayTimeout, fmt.Sprintf("compile exceeded %v", time.Nanosecond)
				if batch {
					status, want = 0, context.DeadlineExceeded.Error()
				}
				if rep.status != status || !strings.HasSuffix(rep.err, want) {
					t.Fatalf("got %d %q, want %d %q", rep.status, rep.err, status, want)
				}
				if d := readOutcomeCounters(late); d != (outcomeCounters{c0.badSpecs, c0.compileErrors, c0.timeouts + 1}) {
					t.Fatalf("counters %+v -> %+v, want timeouts +1 only", c0, d)
				}
				if rec := newest(t, late, rep); rec.Outcome != flightrec.OutcomeTimeout {
					t.Fatalf("flight record %+v, want outcome timeout", rec)
				}
			})
			t.Run("success", func(t *testing.T) {
				c0 := readOutcomeCounters(s)
				rep := ep.post(t, ts.URL, specText(i+1), tp)
				if rep.status != http.StatusOK || rep.err != "" || rep.id == "" {
					t.Fatalf("got %d %q id %q, want 200 with a request id", rep.status, rep.err, rep.id)
				}
				if rep.trace != traceID {
					t.Fatalf("trace_id %q, want the inbound %q", rep.trace, traceID)
				}
				if d := readOutcomeCounters(s); d != c0 {
					t.Fatalf("counters %+v -> %+v, want unchanged", c0, d)
				}
				if rec := newest(t, s, rep); rec.Outcome != flightrec.OutcomeOK || rec.TraceID != traceID {
					t.Fatalf("flight record %+v, want outcome ok on trace %s", rec, traceID)
				}
			})
		})
	}
}
