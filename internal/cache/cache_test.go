package cache

import (
	"context"
	"testing"
	"time"

	"bristleblocks/internal/core"
	"bristleblocks/internal/experiments"
)

func smallSpec() *core.Spec { return experiments.SpecFor(experiments.Suite[1]) }
func largeSpec() *core.Spec { return experiments.SpecFor(experiments.Suite[4]) }

func TestKeyCanonical(t *testing.T) {
	a := Key(smallSpec(), nil)
	b := Key(smallSpec(), &core.Options{})
	if a != b {
		t.Fatalf("nil options and zero options hash differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("key is not hex sha256: %q", a)
	}
	if Key(largeSpec(), nil) == a {
		t.Fatal("different specs share a key")
	}
	if Key(smallSpec(), &core.Options{SkipPads: true}) == a {
		t.Fatal("different options share a key")
	}
	spec := smallSpec()
	spec.Globals = map[string]bool{"X": true}
	if Key(spec, nil) == a {
		t.Fatal("changed global did not change the key")
	}
}

func TestCompileReadThrough(t *testing.T) {
	c, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, cached, err := c.Compile(ctx, smallSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first compile reported a cache hit")
	}
	if len(res.CIF) == 0 || res.Text == "" || res.Block == "" || res.Logical == "" {
		t.Fatal("rendered result is missing representations")
	}
	if res.Stats.CellsPlaced == 0 {
		t.Fatal("rendered result is missing stats")
	}
	res2, cached, err := c.Compile(ctx, smallSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || res2 != res {
		t.Fatal("second identical compile missed the cache")
	}
	cs := c.Counters()
	if cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("counters = %+v, want 1 hit / 1 miss / 1 entry", cs)
	}
	if got := c.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := New(1, "") // 1 byte budget: every insert evicts the previous
	if err != nil {
		t.Fatal(err)
	}
	r1 := &Result{Key: "k1", CIF: []byte("aaaa")}
	r2 := &Result{Key: "k2", CIF: []byte("bbbb")}
	c.Put("k1", r1)
	c.Put("k2", r2)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 survived past the byte budget")
	}
	if _, ok := c.Get("k2"); !ok {
		t.Fatal("most recent entry was evicted")
	}
	cs := c.Counters()
	if cs.Evictions != 1 || cs.Entries != 1 {
		t.Fatalf("counters = %+v, want 1 eviction / 1 entry", cs)
	}
}

func TestLRURecencyOrder(t *testing.T) {
	c, err := New(2048, "")
	if err != nil {
		t.Fatal(err)
	}
	pad := make([]byte, 512)
	c.Put("a", &Result{Key: "a", CIF: pad})
	c.Put("b", &Result{Key: "b", CIF: pad})
	c.Get("a") // refresh a: b is now least recent
	c.Put("c", &Result{Key: "c", CIF: pad})
	if _, ok := c.Get("b"); ok {
		t.Fatal("least-recently-used entry survived")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("refreshed entry was evicted")
	}
}

// TestWarmHitSpeedup pins the acceptance criterion: recompiling the
// CompileLarge suite chip through a warm cache must be at least 10x faster
// than the cold three-pass run (in practice it is orders of magnitude).
func TestWarmHitSpeedup(t *testing.T) {
	c, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	t0 := time.Now()
	if _, cached, err := c.Compile(ctx, largeSpec(), nil); err != nil || cached {
		t.Fatalf("cold compile: cached=%v err=%v", cached, err)
	}
	cold := time.Since(t0)

	const warmRuns = 10
	t1 := time.Now()
	for i := 0; i < warmRuns; i++ {
		if _, cached, err := c.Compile(ctx, largeSpec(), nil); err != nil || !cached {
			t.Fatalf("warm compile %d: cached=%v err=%v", i, cached, err)
		}
	}
	warm := time.Since(t1) / warmRuns
	if warm*10 > cold {
		t.Fatalf("warm hit %v is not >=10x faster than cold compile %v", warm, cold)
	}
}

func TestCompileErrorNotCached(t *testing.T) {
	c, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	bad := smallSpec()
	bad.DataWidth = 0
	if _, _, err := c.Compile(context.Background(), bad, nil); err == nil {
		t.Fatal("invalid spec compiled")
	}
	if cs := c.Counters(); cs.Entries != 0 {
		t.Fatalf("failed compile left a cache entry: %+v", cs)
	}
}

// TestLocalCallsCountNothing pins the counting rule bbd_cache_hit_ratio
// rests on: the shard server's GetLocal/PutLocal and the worker's local
// re-check leave Hits, Misses and HitRatio alone, so a request that hops
// through them is counted once, by its GetCtx.
func TestLocalCallsCountNothing(t *testing.T) {
	c, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, ok := c.GetCtx(ctx, "a"); ok {
		t.Fatal("empty cache hit")
	}
	c.PutLocal("a", &Result{Key: "a"})
	for i := 0; i < 3; i++ {
		if _, ok := c.GetLocal("a"); !ok {
			t.Fatal("local put missed")
		}
		if _, ok := c.GetLocal("b"); ok {
			t.Fatal("absent key hit")
		}
	}
	if cs := c.Counters(); cs.Hits != 0 || cs.Misses != 1 || c.HitRatio() != 0 {
		t.Fatalf("local calls counted: %+v, hit ratio %v", cs, c.HitRatio())
	}
	if _, ok := c.GetCtx(ctx, "a"); !ok {
		t.Fatal("GetCtx missed a stored key")
	}
	if cs := c.Counters(); cs.Hits != 1 || cs.Misses != 1 || c.HitRatio() != 0.5 {
		t.Fatalf("counters = %+v, hit ratio %v; want 1 hit / 1 miss / 0.5", cs, c.HitRatio())
	}
}
