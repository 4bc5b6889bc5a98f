package cache

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bristleblocks/internal/core"
	"bristleblocks/internal/specgen"
)

// openCache opens a disk-backed cache that the test closes when done.
func openCache(t testing.TB, maxBytes int64, dir string) *Cache {
	t.Helper()
	c, err := New(maxBytes, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// hexKey is a valid disk key distinct for each i.
func hexKey(i int) string { return fmt.Sprintf("%064x", i) }

func TestDiskLayerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c1 := openCache(t, 0, dir)
	ctx := context.Background()
	if _, _, err := c1.Compile(ctx, smallSpec(), nil); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// A fresh cache over the same directory models a daemon restart: the
	// memory layer is cold but the disk layer hits and promotes.
	c2 := openCache(t, 0, dir)
	res, cached, err := c2.Compile(ctx, smallSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("restart lost the disk entry")
	}
	if res.Chip != smallSpec().Name || len(res.CIF) == 0 {
		t.Fatal("disk entry came back incomplete")
	}
	cs := c2.Counters()
	if cs.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", cs.DiskHits)
	}
	// Promoted: the next Get must hit memory without touching disk.
	key := Key(smallSpec(), nil)
	if _, ok := c2.Get(key); !ok {
		t.Fatal("disk hit was not promoted to memory")
	}
	if cs2 := c2.Counters(); cs2.DiskHits != 1 {
		t.Fatalf("memory-layer get went to disk: %+v", cs2)
	}
}

// TestDiskLayerIgnoresCorruptEntries damages the log the ways a crash, a
// bad sector or a second writer can, and checks that each damaged record
// is a miss, is never served, and leaves the log writable.
func TestDiskLayerIgnoresCorruptEntries(t *testing.T) {
	key := Key(smallSpec(), nil)
	// stored compiles the small spec through a fresh cache on dir and
	// returns the log's bytes.
	stored := func(t *testing.T, dir string) []byte {
		c := openCache(t, 0, dir)
		if _, _, err := c.Compile(context.Background(), smallSpec(), nil); err != nil {
			t.Fatal(err)
		}
		c.Close()
		data, err := os.ReadFile(filepath.Join(dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	rewrite := func(t *testing.T, dir string, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("torn tail", func(t *testing.T) {
		dir := t.TempDir()
		data := stored(t, dir)
		rewrite(t, dir, data[:len(data)/2])
		c := openCache(t, 0, dir)
		if _, ok := c.Get(key); ok {
			t.Fatal("torn record was served")
		}
		// The tail was cut at open, so this append lands where the torn
		// record began and survives a restart.
		if _, _, err := c.Compile(context.Background(), smallSpec(), nil); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if after, _ := os.ReadFile(filepath.Join(dir, logName)); len(after) >= len(data)*3/2 {
			t.Fatalf("log is %d bytes after one %d-byte record: the torn tail was kept", len(after), len(data))
		}
		if _, ok := openCache(t, 0, dir).Get(key); !ok {
			t.Fatal("append after a torn tail did not survive a restart")
		}
	})

	t.Run("flipped payload byte", func(t *testing.T) {
		dir := t.TempDir()
		data := stored(t, dir)
		data[len(data)/2] ^= 0x40
		rewrite(t, dir, data)
		for restart := 0; restart < 2; restart++ {
			c := openCache(t, 0, dir)
			for i := 0; i < 2; i++ {
				if _, ok := c.Get(key); ok {
					t.Fatalf("restart %d, get %d: corrupt record was served", restart, i)
				}
			}
			if cs := c.Counters(); cs.DiskHits != 0 {
				t.Fatalf("corrupt record counted as a disk hit: %+v", cs)
			}
			c.Close()
		}
	})

	t.Run("frame under another key", func(t *testing.T) {
		c := openCache(t, 0, t.TempDir())
		p, err := encodeFrame(&Result{Key: hexKey(2), Chip: "other"})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.disk.Put(hexKey(1), p); err != nil {
			t.Fatal(err)
		}
		if res, ok := c.Get(hexKey(1)); ok {
			t.Fatalf("frame stored for %s served as %s", res.Key, hexKey(1))
		}
		if _, ok := c.disk.Get(hexKey(1)); ok {
			t.Fatal("mismatched frame was not dropped")
		}
	})

	t.Run("old json entry", func(t *testing.T) {
		// The one-file-per-key layout's entries are neither read nor
		// deleted.
		dir := t.TempDir()
		old := filepath.Join(dir, key+".json")
		if err := os.WriteFile(old, []byte(`{"key":"`+key+`","chip":"old"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := openCache(t, 0, dir).Get(key); ok {
			t.Fatal("old json entry was served")
		}
		if _, err := os.Stat(old); err != nil {
			t.Fatalf("old json entry was touched: %v", err)
		}
	})

	t.Run("second writer", func(t *testing.T) {
		// Two caches own one directory: both append at offset 0, so the
		// second clobbers the record the first has indexed with one of
		// the same length whose checksums hold; only its key differs.
		dir := t.TempDir()
		a, b := openCache(t, 0, dir), openCache(t, 0, dir)
		a.Put(hexKey(1), &Result{Key: hexKey(1), Chip: "a"})
		b.Put(hexKey(2), &Result{Key: hexKey(2), Chip: "b"})
		if p, ok := a.disk.Get(hexKey(1)); ok {
			t.Fatalf("clobbered record served: %q", p)
		}
	})
}

// TestDiskLayerNewestWins writes one key twice; a restart serves the
// second record.
func TestDiskLayerNewestWins(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, 0, dir)
	c.Put(hexKey(7), &Result{Key: hexKey(7), Chip: "first"})
	c.Put(hexKey(7), &Result{Key: hexKey(7), Chip: "second"})
	c.Close()
	res, ok := openCache(t, 0, dir).Get(hexKey(7))
	if !ok || res.Chip != "second" {
		t.Fatalf("after restart got %+v, %v; want the second record", res, ok)
	}
}

func TestDiskStoreRefusesBadKeys(t *testing.T) {
	c := openCache(t, 0, t.TempDir())
	for _, k := range []string{"", "short", "../../../../etc/passwd", string(make([]byte, 64)), hexKey(1)[:63] + "G"} {
		p, err := encodeFrame(&Result{Key: k})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.disk.Put(k, p); err == nil {
			t.Fatalf("key %q was accepted", k)
		}
	}
}

// TestDiskConcurrentPutGet drives the disk layer from several goroutines
// under -race. A one-byte memory budget keeps almost every Get on disk.
func TestDiskConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, 1, dir)
	const writers, keys = 4, 64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := hexKey(w*keys + i)
				c.Put(k, &Result{Key: k, Chip: k[56:], CIF: []byte(k)})
				other := hexKey((w+1)%writers*keys + i)
				if res, ok := c.Get(other); ok && (res.Key != other || string(res.CIF) != other) {
					t.Errorf("get %s returned the record for %s", other, res.Key)
				}
			}
		}(w)
	}
	wg.Wait()
	c.Close()
	r := openCache(t, 1, dir)
	for i := 0; i < writers*keys; i++ {
		if res, ok := r.Get(hexKey(i)); !ok || res.Chip != hexKey(i)[56:] {
			t.Fatalf("key %d after restart: %+v, %v", i, res, ok)
		}
	}
}

// padsResult is a rendered ForPads compile, the size a cold bbd request
// writes to the disk layer.
func padsResult(b *testing.B) *Result {
	for seed := int64(1); ; seed++ {
		chip, err := core.Compile(specgen.FromSeed(seed, &specgen.Config{ForPads: true}), nil)
		if err != nil {
			continue // a Pass 3 rejection; try the next seed
		}
		res, err := Render(chip)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
}

// withKey is res stored under key k.
func withKey(res *Result, k string) *Result {
	return &Result{Key: k, Chip: res.Chip, Stats: res.Stats, TimesUS: res.TimesUS, CIF: res.CIF,
		Sticks: res.Sticks, Text: res.Text, Block: res.Block, Logical: res.Logical}
}

// BenchmarkDiskPut is the disk side of a cold compile: a lookup that
// misses, then the write of a rendered result under a new key.
func BenchmarkDiskPut(b *testing.B) {
	res := padsResult(b)
	c := openCache(b, 0, b.TempDir())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := hexKey(i)
		if _, ok := c.Get(k); ok {
			b.Fatal("fresh key hit")
		}
		c.Put(k, withKey(res, k))
	}
}

// BenchmarkDiskGet reads rendered results back from disk after a restart,
// cycling over more keys than the one-byte memory budget holds.
func BenchmarkDiskGet(b *testing.B) {
	res := padsResult(b)
	dir := b.TempDir()
	const keys = 64
	w := openCache(b, 0, dir)
	for i := 0; i < keys; i++ {
		w.Put(hexKey(i), withKey(res, hexKey(i)))
	}
	w.Close()
	c := openCache(b, 1, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(hexKey(i % keys)); !ok {
			b.Fatal("stored key missed")
		}
	}
}
