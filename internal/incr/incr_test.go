package incr

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestKeyPartsDoNotAlias pins the NUL separation: adjacent parts must not
// concatenate into the same digest.
func TestKeyPartsDoNotAlias(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Fatal(`Key("ab","c") == Key("a","bc"): parts alias`)
	}
	if Key("a") == Key("a", "") {
		t.Fatal(`Key("a") == Key("a",""): part count invisible`)
	}
	if Key("x") != Key("x") {
		t.Fatal("Key is not deterministic")
	}
}

// TestLRUEvictionOrder pins the byte budget's eviction order: least
// recently used first, with a Get refreshing recency.
func TestLRUEvictionOrder(t *testing.T) {
	s, err := New(300, "")
	if err != nil {
		t.Fatal(err)
	}
	ka, kb, kc := Key("a"), Key("b"), Key("c")
	s.Put("ga", ka, "a", 100)
	s.Put("gb", kb, "b", 100)
	s.Put("gc", kc, "c", 100)
	// Touch a so b becomes the LRU victim.
	if _, ok := s.Get(ka); !ok {
		t.Fatal("a missing before eviction")
	}
	s.Put("gd", Key("d"), "d", 100)
	if _, ok := s.Get(kb); ok {
		t.Fatal("b survived: eviction was not least-recently-used")
	}
	for _, k := range []string{ka, kc} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("recently used entry %s evicted", k)
		}
	}
	c := s.Counters()
	if c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	if c.Bytes != 300 || c.Entries != 3 {
		t.Fatalf("bytes/entries = %d/%d, want 300/3", c.Bytes, c.Entries)
	}
}

// TestOversizeEntryKeepsNewest pins the budget loop's floor: an entry
// larger than the whole budget still resides (alone) rather than thrashing.
func TestOversizeEntryKeepsNewest(t *testing.T) {
	s, _ := New(100, "")
	s.Put("g", Key("big"), "big", 1000)
	if _, ok := s.Get(Key("big")); !ok {
		t.Fatal("oversize entry not resident")
	}
	if c := s.Counters(); c.Entries != 1 {
		t.Fatalf("entries = %d, want 1", c.Entries)
	}
}

// TestGroupInvalidation pins the variant semantics: a Put of a new key
// under an occupied group evicts the stale variant and counts it as an
// invalidation, not an eviction.
func TestGroupInvalidation(t *testing.T) {
	s, _ := New(1<<20, "")
	old, new_ := Key("v1"), Key("v2")
	s.Put("gen:chip:0:io", old, "v1", 10)
	s.Put("gen:chip:0:io", new_, "v2", 10)
	if _, ok := s.Get(old); ok {
		t.Fatal("stale variant still resident after group displacement")
	}
	if _, ok := s.Get(new_); !ok {
		t.Fatal("new variant missing")
	}
	c := s.Counters()
	if c.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", c.Invalidations)
	}
	if c.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 (displacement is an invalidation)", c.Evictions)
	}
	// Re-putting the same key under the same group is an update, not an
	// invalidation.
	s.Put("gen:chip:0:io", new_, "v2'", 10)
	if c := s.Counters(); c.Invalidations != 1 {
		t.Fatalf("same-key re-put counted as invalidation (%d)", c.Invalidations)
	}
}

// TestVersionBumpInvalidatesEverything pins the compiler-upgrade story:
// keys carry the version as their first part, so a bump misses every
// group and displaces every entry on re-put.
func TestVersionBumpInvalidatesEverything(t *testing.T) {
	s, _ := New(1<<20, "")
	groups := []string{"gen:c:0:io", "gen:c:1:r", "st:abc/cell", "p2:c", "p3:c"}
	for _, g := range groups {
		s.Put(g, Key("bristleblocks-5", g), g+"@5", 10)
	}
	// After the bump every lookup under the new version misses...
	for _, g := range groups {
		if _, ok := s.Get(Key("bristleblocks-6", g)); ok {
			t.Fatalf("group %s hit across a version bump", g)
		}
	}
	// ...and every re-put displaces the old variant.
	for _, g := range groups {
		s.Put(g, Key("bristleblocks-6", g), g+"@6", 10)
	}
	c := s.Counters()
	if int(c.Invalidations) != len(groups) {
		t.Fatalf("invalidations = %d, want %d (one per group)", c.Invalidations, len(groups))
	}
	for _, g := range groups {
		if _, ok := s.Get(Key("bristleblocks-5", g)); ok {
			t.Fatalf("stale version of %s still resident", g)
		}
	}
}

// TestNilStoreIsInert pins the nil-store contract every call site relies
// on: all methods are safe and report nothing.
func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil store hit")
	}
	if _, ok := s.GetDurable("g", "k", nil); ok {
		t.Fatal("nil store durable hit")
	}
	s.Put("g", "k", "v", 1)
	s.PutDurable("g", "k", "v", 1, nil)
	if c := s.Counters(); c != (Counters{}) {
		t.Fatalf("nil store counters = %+v", c)
	}
	if r := s.HitRatio(); r != 0 {
		t.Fatalf("nil store hit ratio = %v", r)
	}
}

func encStr(v any) ([]byte, error)        { return []byte(v.(string)), nil }
func decStr(b []byte) (any, int64, error) { return string(b), int64(len(b)) + 1, nil }

// openStore opens a disk-backed store that the test closes when done.
func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := New(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestDiskRoundTrip pins the durable layer: a write-through artifact
// survives into a fresh store rooted at the same directory, counted as a
// disk hit and promoted into memory.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := Key("stretch", "cell")

	s1 := openStore(t, dir)
	s1.PutDurable("st:cell", key, "payload", 8, encStr)
	s1.Close()

	s2 := openStore(t, dir)
	v, ok := s2.GetDurable("st:cell", key, decStr)
	if !ok || v.(string) != "payload" {
		t.Fatalf("disk round trip: got %v, %v", v, ok)
	}
	c := s2.Counters()
	if c.DiskHits != 1 || c.Hits != 1 {
		t.Fatalf("disk/total hits = %d/%d, want 1/1", c.DiskHits, c.Hits)
	}
	// Promotion: the second Get is a pure memory hit.
	if _, ok := s2.GetDurable("st:cell", key, decStr); !ok {
		t.Fatal("promoted entry missing")
	}
	if c := s2.Counters(); c.DiskHits != 1 {
		t.Fatalf("disk hits after promotion = %d, want 1", c.DiskHits)
	}
}

// TestDiskRejectsCorruptBlob pins the payload checksum: a blob whose
// bytes changed on disk is a miss, dropped rather than served, even to a
// decoder that would accept any bytes.
func TestDiskRejectsCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	key := Key("x")
	s := openStore(t, dir)
	s.PutDurable("g", key, "good", 4, encStr)
	s.Close()

	p := filepath.Join(dir, "artifacts.log")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1 // "good" -> "goof"
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := openStore(t, dir)
	for i := 0; i < 2; i++ {
		if v, ok := fresh.GetDurable("g", key, decStr); ok {
			t.Fatalf("corrupt blob served: %q", v)
		}
	}
	if c := fresh.Counters(); c.DiskHits != 0 || c.Misses != 2 {
		t.Fatalf("counters = %+v, want 2 misses and no disk hit", c)
	}
}

// TestDiskDecodeFailureDropsBlob pins the decode error path: a blob the
// codec rejects is treated as a miss and dropped, so not even a codec that
// would accept it is handed it again.
func TestDiskDecodeFailureDropsBlob(t *testing.T) {
	dir := t.TempDir()
	key := Key("y")
	s := openStore(t, dir)
	s.PutDurable("g", key, "data", 4, encStr)
	s.Close()

	fresh := openStore(t, dir)
	bad := func([]byte) (any, int64, error) { return nil, 0, errors.New("bad codec") }
	if _, ok := fresh.GetDurable("g", key, bad); ok {
		t.Fatal("undecodable blob served")
	}
	if _, ok := fresh.GetDurable("g", key, decStr); ok {
		t.Fatal("undecodable blob not dropped")
	}
}

// TestDiskRefusesNonHexKeys pins the key guard: only 64-hex keys are
// written to the log.
func TestDiskRefusesNonHexKeys(t *testing.T) {
	s := openStore(t, t.TempDir())
	for _, k := range []string{"", "short", "../../etc/passwd", Key("ok")[:63] + "G"} {
		if err := s.disk.Put(k, []byte("x")); err == nil {
			t.Fatalf("key %q accepted", k)
		}
	}
	if err := s.disk.Put(Key("ok"), []byte("x")); err != nil {
		t.Fatalf("valid key refused: %v", err)
	}
}

// TestConcurrentAccess drives the store from 32 goroutines mixing hits,
// misses, group displacements, and evictions — the Pass 1 worker-pool
// shape — under -race.
func TestConcurrentAccess(t *testing.T) {
	s, _ := New(4096, t.TempDir())
	defer s.Close()
	const goroutines = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				group := fmt.Sprintf("gen:c:%d", i%16)
				key := Key("v", group, fmt.Sprintf("%d", (g+i)%4))
				if _, ok := s.Get(key); !ok {
					s.Put(group, key, i, 64)
				}
				dkey := Key("st", fmt.Sprintf("%d", i%8))
				if _, ok := s.GetDurable("st:"+dkey[:8], dkey, decStr); !ok {
					s.PutDurable("st:"+dkey[:8], dkey, "cell", 64, encStr)
				}
				s.Counters()
				s.HitRatio()
			}
		}(g)
	}
	wg.Wait()
	c := s.Counters()
	if c.Bytes > 4096 {
		t.Fatalf("budget exceeded after concurrent load: %d bytes", c.Bytes)
	}
	if c.Hits == 0 || c.Misses == 0 {
		t.Fatalf("degenerate traffic: %+v", c)
	}
	if r := s.HitRatio(); r <= 0 || r >= 1 {
		t.Fatalf("hit ratio = %v, want in (0,1)", r)
	}
}
