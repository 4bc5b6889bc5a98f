package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bristleblocks/internal/trace"
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

// TestSessionCIFOnlySameReply: a session compile whose reply carries only
// the CIF skips the other representations — its span tree has no
// pass.representations span and its phase record's reps row reads zero —
// yet answers the same stats, key and CIF as a reps=all compile of the
// same spec. The flight record keeps the options the client asked for.
func TestSessionCIFOnlySameReply(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Parallelism: 1})
	spec := specText(1)
	for _, pads := range []string{"nopads=1&", ""} {
		lean := openSession(t, ts.URL)
		full := openSession(t, ts.URL)
		_, a := postSpec(t, ts.URL+"/session/"+lean.SessionID+"/compile?"+pads+"reps=cif&trace=1", spec)
		_, b := postSpec(t, ts.URL+"/session/"+full.SessionID+"/compile?"+pads+"reps=all&trace=1", spec)
		if a.CIF == "" || a.CIF != b.CIF {
			t.Errorf("%q: reps=cif CIF (%d bytes) differs from reps=all (%d bytes)", pads, len(a.CIF), len(b.CIF))
		}
		if a.Stats != b.Stats || a.Stats.Transistors == 0 {
			t.Errorf("%q: stats differ:\ncif %+v\nall %+v", pads, a.Stats, b.Stats)
		}
		if a.Key != b.Key {
			t.Errorf("%q: key %s differs from reps=all's %s", pads, a.Key, b.Key)
		}
		if a.Sticks != "" || a.Text != "" {
			t.Errorf("%q: reps=cif reply carries other representations", pads)
		}
		hasReps := func(spans []trace.Span) bool {
			for _, sp := range spans {
				if sp.Name == "pass.representations" {
					return true
				}
			}
			return false
		}
		if hasReps(a.Trace) {
			t.Errorf("%q: reps=cif compile traced a pass.representations span", pads)
		}
		if !hasReps(b.Trace) {
			t.Errorf("%q: reps=all compile traced no pass.representations span", pads)
		}
		rec := flightRecord(t, ts.URL, a.RequestID)
		if rec.Allocs == nil || rec.Allocs[trace.PhaseReps].Objects != 0 {
			t.Errorf("%q: reps=cif flight record's reps row = %+v, want zero", pads, rec.Allocs)
		}
		if strings.Contains(rec.Options, "SkipExtraReps:true") {
			t.Errorf("%q: flight record options %q are not the ones asked for", pads, rec.Options)
		}
	}
}

// TestCompileSkipRepsCountsTransistors: /compile?skipreps=1 builds no
// netlist, and its stats still count the chip's transistors.
func TestCompileSkipRepsCountsTransistors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Parallelism: 1})
	spec := specText(1)
	_, lean := postSpec(t, ts.URL+"/compile?skipreps=1&reps=cif", spec)
	_, full := postSpec(t, ts.URL+"/compile?reps=cif", spec)
	if lean.Stats.Transistors == 0 || lean.Stats != full.Stats {
		t.Fatalf("skipreps=1 stats differ:\nlean %+v\nfull %+v", lean.Stats, full.Stats)
	}
}

// TestSessionLifecycle covers the management surface: unknown ids 404,
// DELETE retires, TTL expiry is lazy but effective, and capacity
// displaces the least recently used session.
func TestSessionLifecycle(t *testing.T) {
	// No compile outlasts an hour, so no session here expires; expiry is
	// pinned against explicit times by TestSessionTableTTL.
	s, ts := newTestServer(t, Config{
		Workers: 1, Parallelism: 1,
		MaxSessions: 2, SessionTTL: time.Hour,
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

// TestSessionConcurrentCompiles compiles on two sessions at once. Each
// compile stamps its own session's last-use time while the other
// session's lookup reads every session's for expiry, so under -race an
// unsynchronized last-use time is reported here.
func TestSessionConcurrentCompiles(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Parallelism: 1, SessionTTL: time.Hour})
	ids := []string{openSession(t, ts.URL).SessionID, openSession(t, ts.URL).SessionID}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := http.Post(ts.URL+"/session/"+id+"/compile?nopads=1", "text/plain", strings.NewReader(specText(i%2)))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("session %s compile %d = %d", id, i, resp.StatusCode)
					return
				}
			}
		}(id)
	}
	wg.Wait()
}

// TestSessionTableTTL pins expiry on the table's own clock argument: a
// session idle for exactly the TTL survives, one idle longer is retired at
// the next lookup of any session, and a compile's touch restarts the
// clock.
func TestSessionTableTTL(t *testing.T) {
	tab := newSessionTable(4, time.Minute, 1)
	t0 := time.Unix(1_000_000, 0)
	idle, err := tab.create(t0)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := tab.create(t0)
	if err != nil {
		t.Fatal(err)
	}
	busy.touch(t0.Add(50 * time.Second))

	if _, ok := tab.get(idle.id, t0.Add(time.Minute)); !ok {
		t.Fatal("session idle for exactly the TTL expired")
	}
	if _, ok := tab.get(busy.id, t0.Add(time.Minute+time.Second)); !ok {
		t.Fatal("session touched within the TTL expired")
	}
	if _, ok := tab.get(idle.id, t0.Add(time.Minute+time.Second)); ok {
		t.Fatal("session idle past the TTL is still served")
	}
	if _, created, expired, active := tab.totals(); created != 2 || expired != 1 || active != 1 {
		t.Fatalf("created/expired/active = %d/%d/%d, want 2/1/1", created, expired, active)
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

// TestSessionCompileLeavesPhaseFamilies: only compiles counted in
// bbd_compiles_total feed the per-phase families. An edit session's
// compile is counted in bbd_incr_session_compiles_total alone, and its
// phase record still reaches its flight record.
func TestSessionCompileLeavesPhaseFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Parallelism: 1})
	if resp, _ := postSpec(t, ts.URL+"/compile", specText(1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold compile = %d", resp.StatusCode)
	}
	before, vars := phaseFamilies(t, ts.URL), debugVars(t, ts.URL)
	compiles, sessions := counter(t, vars, "compiles"), counter(t, vars, "session_compiles")

	sr := openSession(t, ts.URL)
	resp, cr := postSpec(t, ts.URL+"/session/"+sr.SessionID+"/compile", specText(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session compile = %d", resp.StatusCode)
	}
	after, vars := phaseFamilies(t, ts.URL), debugVars(t, ts.URL)
	for k, v := range before {
		if after[k] != v {
			t.Errorf("session compile moved %s: %d -> %d", k, v, after[k])
		}
	}
	if got := counter(t, vars, "compiles"); got != compiles {
		t.Errorf("compiles moved %d -> %d on a session compile", compiles, got)
	}
	if got := counter(t, vars, "session_compiles"); got != sessions+1 {
		t.Errorf("session_compiles = %d, want %d", got, sessions+1)
	}
	rec := flightRecord(t, ts.URL, cr.RequestID)
	if rec.Allocs == nil || rec.Allocs[trace.PhaseTotal].Objects == 0 || rec.Allocs[trace.PhaseCore].Objects == 0 {
		t.Fatalf("session compile's flight record has no allocs: %+v", rec.Allocs)
	}
}
