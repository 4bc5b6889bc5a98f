package cache

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The peer tier against httptest stand-ins for the owning node: the hit,
// the clean miss, and each failure class — dead peer, slow peer, corrupt
// peer — every one of which must degrade to a miss with an error and the
// right counter bumped, because the caller's fallback is always the same:
// compile locally.

// tierSelf is the non-owning node's name in every two-node test ring.
const tierSelf = "http://self.invalid:1"

// keyOwnedBy scans synthetic 64-hex keys until want owns one. The ring
// is fixed and each candidate key lands uniformly on it, so a few tries
// always suffice (scanning node *names* for a fixed key would instead
// fail whenever the other node happens to own the arc right after the
// key's hash).
func keyOwnedBy(t *testing.T, ring *Ring, want string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("%064x", i)
		if ring.Owner(k) == want {
			return k
		}
	}
	t.Fatalf("no synthetic key owned by %q", want)
	return ""
}

// twoNodeTier builds a tier whose ring is {owner, tierSelf} plus a key
// the owner owns — so Fetch actually crosses the wire.
func twoNodeTier(t *testing.T, owner string, timeout time.Duration) (*PeerTier, string) {
	t.Helper()
	key := keyOwnedBy(t, NewRing([]string{owner, tierSelf}), owner)
	pt, err := NewPeerTier([]string{owner, tierSelf}, tierSelf, timeout)
	if err != nil {
		t.Fatal(err)
	}
	return pt, key
}

func testResult(key string) *Result {
	return &Result{Key: key, Chip: "peered", CIF: []byte("CIF;\n"), Sticks: "||"}
}

func TestPeerFetchHitAndMiss(t *testing.T) {
	var stored sync.Map // shard path -> *Result
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v, ok := stored.Load(r.URL.Path)
		if !ok {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(v)
	}))
	defer ts.Close()

	pt, key := twoNodeTier(t, ts.URL, 0)
	res, owner, err := pt.Fetch(context.Background(), key)
	if res != nil || err != nil {
		t.Fatalf("fetch before store: %+v, %v; want a clean miss", res, err)
	}
	if owner != ts.URL {
		t.Errorf("clean miss names owner %q, want %q", owner, ts.URL)
	}
	stored.Store("/cache/"+key, testResult(key))
	res, _, err = pt.Fetch(context.Background(), key)
	if res == nil || err != nil {
		t.Fatalf("fetch after store: %v (did the tier GET the wrong path?)", err)
	}
	if res.Chip != "peered" || string(res.CIF) != "CIF;\n" || res.Sticks != "||" {
		t.Errorf("fetched result mangled: %+v", res)
	}
	c := pt.Counters()
	if c.Fetches != 2 || c.Hits != 1 || c.Misses != 1 || c.Errors != 0 || c.Timeouts != 0 {
		t.Errorf("counters after miss+hit: %+v", c)
	}
	if c.Nodes != 2 {
		t.Errorf("ring size %d, want 2", c.Nodes)
	}
}

// TestPeerSelfOwnedKeyStaysLocal: a key this node owns never generates
// peer traffic — the local layers were already consulted.
func TestPeerSelfOwnedKeyStaysLocal(t *testing.T) {
	called := atomic.Bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		called.Store(true)
		http.NotFound(w, r)
	}))
	defer ts.Close()
	key := keyOwnedBy(t, NewRing([]string{ts.URL, tierSelf}), tierSelf)
	pt, err := NewPeerTier([]string{ts.URL, tierSelf}, tierSelf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res, owner, err := pt.Fetch(context.Background(), key); res != nil || owner != "" || err != nil {
		t.Errorf("self-owned fetch answered %+v, owner %q, %v; want a miss naming no owner", res, owner, err)
	}
	if called.Load() {
		t.Error("self-owned key generated peer traffic")
	}
	if c := pt.Counters(); c.Fetches != 0 {
		t.Errorf("self-owned traffic counted: %+v", c)
	}
}

func TestPeerDeadPeerDegrades(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // dead before first use: connection refused
	pt, key := twoNodeTier(t, ts.URL, 0)
	if res, _, err := pt.Fetch(context.Background(), key); res != nil || err == nil {
		t.Fatalf("fetch from a dead peer answered %+v, %v; want a failed miss", res, err)
	}
	if c := pt.Counters(); c.Errors < 1 {
		t.Errorf("dead-peer fetch not counted as error: %+v", c)
	}
}

func TestPeerSlowPeerTimesOut(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	pt, key := twoNodeTier(t, ts.URL, 30*time.Millisecond)
	start := time.Now()
	if res, _, err := pt.Fetch(context.Background(), key); res != nil || err == nil {
		t.Fatalf("fetch from a stalled peer answered %+v, %v; want a failed miss", res, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("fetch waited %v for a stalled peer; budget was 30ms", elapsed)
	}
	if c := pt.Counters(); c.Timeouts < 1 {
		t.Errorf("stalled fetch not counted as timeout: %+v", c)
	}
}

// TestPeerCorruptionDegrades: bytes that don't parse, and results filed
// under the wrong key, both degrade exactly like a dead peer.
func TestPeerCorruptionDegrades(t *testing.T) {
	var mode atomic.Value
	mode.Store("garbage")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case "garbage":
			w.Write([]byte("not json {"))
		case "wrongkey":
			k := strings.TrimPrefix(r.URL.Path, "/cache/")
			json.NewEncoder(w).Encode(testResult("deadbeef" + k[8:]))
		}
	}))
	defer ts.Close()
	pt, key := twoNodeTier(t, ts.URL, 0)
	for _, m := range []string{"garbage", "wrongkey"} {
		mode.Store(m)
		if res, _, err := pt.Fetch(context.Background(), key); res != nil || err == nil {
			t.Fatalf("%s fetch answered %+v, %v; want a failed miss", m, res, err)
		}
	}
	if c := pt.Counters(); c.Errors != 2 || c.Hits != 0 {
		t.Errorf("corruption not counted as errors: %+v", c)
	}
}

// TestPeerTierRequiresSelf pins the misconfiguration check: a node must
// appear in its own -peers list or the ring would disagree across the
// farm.
func TestPeerTierRequiresSelf(t *testing.T) {
	if _, err := NewPeerTier([]string{"http://a", "http://b"}, "http://c", 0); err == nil {
		t.Fatal("tier accepted a self outside its own ring")
	}
}

// TestCachePeerPromotion: a peer hit lands in the local memory layer, so
// the next lookup is local.
func TestCachePeerPromotion(t *testing.T) {
	var fetches atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		json.NewEncoder(w).Encode(testResult(strings.TrimPrefix(r.URL.Path, "/cache/")))
	}))
	defer ts.Close()

	c, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	pt, key := twoNodeTier(t, ts.URL, 0)
	c.SetPeers(pt)
	if _, ok := c.Get(key); !ok {
		t.Fatal("peer-backed get missed")
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("promoted get missed")
	}
	if n := fetches.Load(); n != 1 {
		t.Errorf("peer fetched %d times; the first hit should promote into memory", n)
	}
	cc := c.Counters()
	if cc.Hits != 2 || cc.PeerHits != 1 || cc.Misses != 0 {
		t.Errorf("cache counters after peer hit + promoted hit: %+v", cc)
	}
}
