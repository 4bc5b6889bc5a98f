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

	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
	"bristleblocks/internal/obs/prom"
	"bristleblocks/internal/scenario"
)

// verifyChipText is a small datapath the /verify tests grade: a register
// and a constant source on a shared 4-bit bus.
const verifyChipText = `chip vtest
microcode width 4
field LD 0 1
field RD 1 1
field K  2 1
field X  3 1

data width 4

element r  registers ld="LD" rd="RD"
element k1 const     value=5 rd="K"
element x  xfer      x="X"
`

const verifyVectors = `
chip vtest
scenario load-const
step nop | A=0xF B=0xF
step K=1 LD=1 | A=5
step RD=1 | A=5
expect r=5

scenario bridge
step K=1 X=1 | A=5 B=5
`

func postVerify(t *testing.T, url string, req VerifyRequest) (*http.Response, *VerifyResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vr VerifyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, &vr
}

func TestVerifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, vr := postVerify(t, ts.URL+"/verify", VerifyRequest{Spec: verifyChipText, Vectors: verifyVectors})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !vr.Passed || len(vr.Verdicts) != 2 {
		t.Fatalf("verdicts: %+v", vr)
	}
	for _, v := range vr.Verdicts {
		if !v.Passed100() {
			t.Errorf("scenario %s: %+v", v.Scenario, v)
		}
	}
	if vr.Chip != "vtest" || len(vr.Key) != 64 {
		t.Fatalf("identity fields: chip %q key %q", vr.Chip, vr.Key)
	}
	if vr.Stats.Transistors == 0 {
		t.Fatal("response carries no chip statistics")
	}
}

// TestVerifyFailingVectorsStill200 pins the contract that a failing
// expectation is a graded result, not an HTTP error.
func TestVerifyFailingVectorsStill200(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, vr := postVerify(t, ts.URL+"/verify", VerifyRequest{
		Spec:    verifyChipText,
		Vectors: "scenario wrong\nstep K=1 | A=1\nstep nop | A=0xF\n",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if vr.Passed {
		t.Fatal("response claims passed despite a failing vector")
	}
	v := vr.Verdicts[0]
	if v.GradePercent != 50 || len(v.Failures) != 1 {
		t.Fatalf("verdict: %+v", v)
	}
	vars := debugVars(t, ts.URL)
	if got := counter(t, vars, "scenario_failed_vectors"); got != 1 {
		t.Fatalf("scenario_failed_vectors = %d, want 1", got)
	}
	if got := counter(t, vars, "scenario_grade_percent_last"); got != 50 {
		t.Fatalf("scenario_grade_percent_last = %d, want 50", got)
	}
}

// TestVerifyByteIdentity is the determinism acceptance gate: the verdict
// list must be byte-identical between an in-process grade and the HTTP
// endpoint, and across servers running jobs=1, 4, and 8.
func TestVerifyByteIdentity(t *testing.T) {
	// In-process reference: compile and grade directly.
	spec, err := desc.Parse(verifyChipText)
	if err != nil {
		t.Fatal(err)
	}
	scs, err := scenario.Parse(verifyVectors)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := core.Compile(spec, &core.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(scenario.GradeAll(chip, scs))
	if err != nil {
		t.Fatal(err)
	}

	for _, jobs := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			_, ts := newTestServer(t, Config{Parallelism: jobs})
			resp, vr := postVerify(t, ts.URL+"/verify", VerifyRequest{Spec: verifyChipText, Vectors: verifyVectors})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			got, err := json.Marshal(vr.Verdicts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("verdicts differ from in-process grade:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// Error-path contracts for /verify, mirroring errorpaths_test.go: each
// failure mode answers with the right status AND the right counter.

func TestVerifyErrorPathMalformedVectors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []VerifyRequest{
		{Spec: verifyChipText, Vectors: "wobble nonsense"},
		{Spec: verifyChipText, Vectors: "step nop | A=1"}, // step before any scenario
		{Spec: verifyChipText, Vectors: ""},               // no scenarios at all
	}
	for i, req := range cases {
		resp, _ := postVerify(t, ts.URL+"/verify", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed vectors %d: status = %d, want 400", i, resp.StatusCode)
		}
		vars := debugVars(t, ts.URL)
		if got := counter(t, vars, "scenario_bad_vectors"); got != int64(i+1) {
			t.Fatalf("after %d malformed vector files: scenario_bad_vectors = %d", i+1, got)
		}
		if got := counter(t, vars, "compiles"); got != 0 {
			t.Fatalf("malformed vectors still compiled: %d", got)
		}
	}

	// A non-JSON body counts on the same counter.
	resp, err := http.Post(ts.URL+"/verify", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-JSON body: status = %d, want 400", resp.StatusCode)
	}
	vars := debugVars(t, ts.URL)
	if got := counter(t, vars, "scenario_bad_vectors"); got != 4 {
		t.Fatalf("scenario_bad_vectors = %d, want 4", got)
	}

	// A bad spec with good vectors lands on bad_specs, not bad_vectors.
	resp2, _ := postVerify(t, ts.URL+"/verify", VerifyRequest{Spec: "chip\nnonsense", Vectors: "scenario s\nstep nop | A=1"})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status = %d, want 400", resp2.StatusCode)
	}
	vars = debugVars(t, ts.URL)
	if got := counter(t, vars, "bad_specs"); got != 1 {
		t.Fatalf("bad_specs = %d, want 1", got)
	}
	if got := counter(t, vars, "scenario_bad_vectors"); got != 4 {
		t.Fatalf("bad spec ticked scenario_bad_vectors: %d", got)
	}
}

func TestVerifyErrorPathQueueFull(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, Timeout: time.Minute,
		BeforeCompile: func(ctx context.Context) {
			select {
			case <-release:
			case <-ctx.Done():
			}
		},
	})

	// One compile occupies the worker, a second the queue slot; a verify
	// request arriving then must shed with 503.
	inFlight := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			spec := specText(5) + fmt.Sprintf("\n# occupant %d\n", i)
			resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(spec))
			if err != nil {
				inFlight <- 0
				return
			}
			resp.Body.Close()
			inFlight <- resp.StatusCode
		}(i)
	}
	waitFor(t, func() bool { return s.InFlight() == 1 && len(s.jobs) == 1 })

	resp, _ := postVerify(t, ts.URL+"/verify", VerifyRequest{Spec: verifyChipText, Vectors: verifyVectors})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("verify under full queue: status = %d, want 503", resp.StatusCode)
	}
	vars := debugVars(t, ts.URL)
	if got := counter(t, vars, "rejected_queue_full"); got != 1 {
		t.Fatalf("rejected_queue_full = %d, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if got := <-inFlight; got != http.StatusOK {
			t.Fatalf("held request finished with %d", got)
		}
	}
}

func TestVerifyErrorPathClientCancel(t *testing.T) {
	entered := make(chan struct{}, 1)
	hold := make(chan struct{}, 1)
	hold <- struct{}{} // only the first compile is held
	s, ts := newTestServer(t, Config{
		Workers: 1, Timeout: time.Minute,
		BeforeCompile: func(ctx context.Context) {
			select {
			case <-hold:
				entered <- struct{}{}
				<-ctx.Done()
			default:
			}
		},
	})

	body, err := json.Marshal(VerifyRequest{Spec: verifyChipText, Vectors: verifyVectors})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/verify", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request succeeded with %d despite cancel", resp.StatusCode)
		}
		errc <- err
	}()
	<-entered
	cancel()
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client saw %v, want context cancellation", err)
	}

	waitFor(t, func() bool { return s.InFlight() == 0 })
	vars := debugVars(t, ts.URL)
	if got := counter(t, vars, "timeouts"); got != 0 {
		t.Fatalf("client cancel counted as timeout: %d", got)
	}
	if got := counter(t, vars, "compile_errors"); got != 0 {
		t.Fatalf("client cancel counted as compile error: %d", got)
	}

	// The pool survives: a fresh verify request grades.
	resp, vr := postVerify(t, ts.URL+"/verify", VerifyRequest{Spec: verifyChipText, Vectors: verifyVectors})
	if resp.StatusCode != http.StatusOK || !vr.Passed {
		t.Fatalf("post-cancel verify: status %d, passed %v", resp.StatusCode, vr.Passed)
	}
}

// TestVerifyErrorPathUncompilableSpec maps a spec that parses but fails in
// the passes to 422 with the compile_errors counter, same as /compile.
func TestVerifyErrorPathUncompilableSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// An ioport in the middle of the core fails Pass 1.
	bad := `chip badio
microcode width 2
field A 0 1
field B 1 1
data width 2
element r1 registers ld="A" rd="B"
element io ioport io="A" class=io
element r2 registers ld="B" rd="A"
`
	resp, _ := postVerify(t, ts.URL+"/verify", VerifyRequest{Spec: bad, Vectors: "scenario s\nstep nop | A=1"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	vars := debugVars(t, ts.URL)
	if got := counter(t, vars, "compile_errors"); got != 1 {
		t.Fatalf("compile_errors = %d, want 1", got)
	}
}

// TestVerifyMetricsOnMetricsPage checks the bbd_scenario_* family renders
// in the Prometheus exposition after a graded request.
func TestVerifyMetricsOnMetricsPage(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := postVerify(t, ts.URL+"/verify", VerifyRequest{Spec: verifyChipText, Vectors: verifyVectors}); resp.StatusCode != http.StatusOK {
		t.Fatalf("verify failed: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	for _, want := range []string{
		"bbd_scenario_requests_total 1",
		"bbd_scenario_graded_total 2",
		"bbd_scenario_bad_vectors_total 0",
		"bbd_scenario_failed_vectors_total 0",
		"bbd_scenario_grade_percent_last 100",
		"bbd_scenario_grade_latency_ms_count 1",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

// TestVerifyCompileFeedsPassFamilies: a /verify compile is a counted cold
// compile, so it must land in the per-pass families alongside
// bbd_compiles_total rather than only in the compile count.
func TestVerifyCompileFeedsPassFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := postVerify(t, ts.URL+"/verify", VerifyRequest{Spec: verifyChipText, Vectors: verifyVectors}); resp.StatusCode != http.StatusOK {
		t.Fatalf("verify failed: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := prom.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	compiles, _ := page.Get("bbd_compiles_total")
	if compiles != 1 {
		t.Fatalf("bbd_compiles_total = %v, want 1", compiles)
	}
	for _, pass := range []string{"core", "control", "pads"} {
		if n, _ := page.Get("bbd_pass_" + pass + "_latency_ms_count"); n != compiles {
			t.Errorf("bbd_pass_%s_latency_ms_count = %v, want %v", pass, n, compiles)
		}
		found := false
		for _, s := range page.Samples {
			if s.Name == "bbd_pass_seconds_total" && s.Labels["pass"] == pass {
				found = true
				if s.Value <= 0 {
					t.Errorf("bbd_pass_seconds_total{pass=%q} = %v after a verify compile", pass, s.Value)
				}
			}
		}
		if !found {
			t.Errorf("bbd_pass_seconds_total{pass=%q} missing", pass)
		}
	}
}
