package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func openSession(t *testing.T, url string) SessionResponse {
	t.Helper()
	resp, err := http.Post(url+"/session", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /session = %d, want 201", resp.StatusCode)
	}
	var sr SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.SessionID == "" {
		t.Fatal("empty session id")
	}
	return sr
}

// TestSessionCompileReusesArtifacts is the session workload end to end:
// open, compile, recompile (all hits), edit (partial invalidation), and
// byte-identity of every answer against the stateless /compile path.
func TestSessionCompileReusesArtifacts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Parallelism: 1})
	sr := openSession(t, ts.URL)
	compileURL := ts.URL + "/session/" + sr.SessionID + "/compile?nopads=1&reps=cif"

	spec := specText(0)
	resp, cold := postSpec(t, compileURL, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session compile = %d", resp.StatusCode)
	}
	if cold.Incr == nil {
		t.Fatal("session response carries no incr counters")
	}
	if cold.Incr.Hits != 0 || cold.Incr.Misses == 0 {
		t.Fatalf("cold session compile counters = %+v", cold.Incr)
	}

	// The session answer must be the same bytes the stateless path serves.
	_, direct := postSpec(t, ts.URL+"/compile?nopads=1&reps=cif", spec)
	if cold.CIF != direct.CIF {
		t.Fatal("session CIF differs from /compile CIF")
	}
	if cold.Stats != direct.Stats {
		t.Fatalf("session stats differ: %+v vs %+v", cold.Stats, direct.Stats)
	}

	// Unchanged spec: everything hits, nothing is invalidated.
	_, warm := postSpec(t, compileURL, spec)
	if warm.Incr.Misses != 0 || warm.Incr.Hits == 0 {
		t.Fatalf("warm session compile counters = %+v", warm.Incr)
	}
	if warm.CIF != cold.CIF {
		t.Fatal("warm session compile changed the CIF")
	}

	// One edited line: some artifacts invalidated, most hit, and the
	// answer matches a scratch compile of the edited spec.
	edited := strings.Replace(spec, "value=1", "value=3", 1)
	if edited == spec {
		t.Fatalf("test spec carries no const to edit:\n%s", spec)
	}
	_, inc := postSpec(t, compileURL, edited)
	if inc.Incr.Invalidations == 0 {
		t.Fatalf("edit invalidated nothing: %+v", inc.Incr)
	}
	if inc.Incr.Hits == 0 {
		t.Fatalf("edit reused nothing: %+v", inc.Incr)
	}
	_, scratch := postSpec(t, ts.URL+"/compile?nopads=1&reps=cif", edited)
	if inc.CIF != scratch.CIF {
		t.Fatal("incremental session CIF differs from the scratch compile")
	}
	if inc.Stats != scratch.Stats {
		t.Fatalf("incremental session stats differ: %+v vs %+v", inc.Stats, scratch.Stats)
	}
}

// TestSessionCompileAllReps: a session compile with reps=all carries
// every representation /compile returns for the same spec, sticks
// included.
func TestSessionCompileAllReps(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Parallelism: 1})
	sr := openSession(t, ts.URL)
	spec := specText(0)
	_, sess := postSpec(t, ts.URL+"/session/"+sr.SessionID+"/compile?nopads=1&reps=all", spec)
	_, direct := postSpec(t, ts.URL+"/compile?nopads=1&reps=all", spec)
	if direct.Sticks == "" {
		t.Fatal("/compile?reps=all returned no sticks")
	}
	for _, rep := range []struct{ name, got, want string }{
		{"cif", sess.CIF, direct.CIF},
		{"sticks", sess.Sticks, direct.Sticks},
		{"text", sess.Text, direct.Text},
		{"block", sess.Block, direct.Block},
		{"logical", sess.Logical, direct.Logical},
	} {
		if rep.got != rep.want {
			t.Errorf("session %s differs from /compile (%d vs %d bytes)", rep.name, len(rep.got), len(rep.want))
		}
	}
}

// TestSessionLifecycle covers the management surface: unknown ids 404,
// DELETE retires, TTL expiry is lazy but effective, and capacity
// displaces the least recently used session.
func TestSessionLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, Parallelism: 1,
		MaxSessions: 2, SessionTTL: 50 * time.Millisecond,
	})

	if resp, _ := postSpec(t, ts.URL+"/session/nope/compile", specText(0)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session compile = %d, want 404", resp.StatusCode)
	}

	sr := openSession(t, ts.URL)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+sr.SessionID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE session = %d, want 204", resp.StatusCode)
	}
	if resp, _ := postSpec(t, ts.URL+"/session/"+sr.SessionID+"/compile", specText(0)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session compile = %d, want 404", resp.StatusCode)
	}

	// TTL: a session idle past the deadline is gone at next touch.
	sr = openSession(t, ts.URL)
	time.Sleep(80 * time.Millisecond)
	if resp, _ := postSpec(t, ts.URL+"/session/"+sr.SessionID+"/compile?nopads=1", specText(0)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired session compile = %d, want 404", resp.StatusCode)
	}

	// Capacity: the third session displaces the least recently used.
	a := openSession(t, ts.URL)
	b := openSession(t, ts.URL)
	if resp, _ := postSpec(t, ts.URL+"/session/"+b.SessionID+"/compile?nopads=1", specText(0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("session b compile = %d", resp.StatusCode)
	}
	if resp, _ := postSpec(t, ts.URL+"/session/"+a.SessionID+"/compile?nopads=1", specText(0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("session a compile = %d", resp.StatusCode)
	}
	c := openSession(t, ts.URL) // b is now LRU and must be displaced
	if resp, _ := postSpec(t, ts.URL+"/session/"+b.SessionID+"/compile?nopads=1", specText(0)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("displaced session compile = %d, want 404", resp.StatusCode)
	}
	for _, id := range []string{a.SessionID, c.SessionID} {
		if resp, _ := postSpec(t, ts.URL+"/session/"+id+"/compile?nopads=1", specText(0)); resp.StatusCode != http.StatusOK {
			t.Fatalf("surviving session %s compile = %d", id, resp.StatusCode)
		}
	}
	if _, _, _, active := s.sessions.totals(); active != 2 {
		t.Fatalf("active sessions = %d, want 2", active)
	}
}

// TestSessionMetricsExported pins the bbd_incr_* families: monotonic
// totals that survive session retirement, plus the expvar incr block.
func TestSessionMetricsExported(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Parallelism: 1})
	sr := openSession(t, ts.URL)
	url := ts.URL + "/session/" + sr.SessionID + "/compile?nopads=1"
	postSpec(t, url, specText(0))
	postSpec(t, url, specText(0))

	// Retire the session; its counters must fold into the totals.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+sr.SessionID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	for _, want := range []string{
		"bbd_incr_hits_total", "bbd_incr_misses_total",
		"bbd_incr_invalidations_total", "bbd_incr_evictions_total",
		"bbd_incr_session_compiles_total", "bbd_incr_sessions_active",
		"bbd_incr_sessions_created_total", "bbd_incr_sessions_expired_total",
		"bbd_incr_hit_ratio", "bbd_incr_entries", "bbd_incr_bytes",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics page lacks %s", want)
		}
	}
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "bbd_incr_hits_total ") && strings.TrimSpace(strings.TrimPrefix(line, "bbd_incr_hits_total")) == "0" {
			t.Error("bbd_incr_hits_total is 0 after a warm session compile was retired")
		}
		if strings.HasPrefix(line, "bbd_incr_session_compiles_total ") && strings.HasSuffix(strings.TrimSpace(line), " 0") {
			t.Error("bbd_incr_session_compiles_total is 0 after two session compiles")
		}
	}
}
