// Package cache is the compile-as-a-service cache: a content-addressed
// store of finished compilations keyed by the canonical form of the input.
// The paper's compiler ran each design as a fresh batch job; a service
// compiling the same one-page description for many users should pay for
// the three passes once. The key hashes (FormatSpec(spec), Options,
// compiler version), so any textual difference in the canonical spec — and
// only a real difference — misses, and a compiler upgrade invalidates
// everything at once.
//
// The cache's two local layers are one incr.Store: a size-bounded
// in-memory LRU (its eviction and disk-hit counters feed the serving
// metrics) over an optional on-disk layer, results.log, that survives
// daemon restarts. A disk hit is promoted into memory. The cache adds the
// Result frame codec (disk.go) and its own request counters: each GetCtx
// counts one hit or miss, whichever tier answers.
//
// A third, optional tier makes the cache horizontal: SetPeers attaches a
// consistent-hash shard ring over a farm's node list (see PeerTier), and
// a key that misses both local layers is fetched from its owning peer,
// which compiles and keeps every key it owns — one cold compile warms the
// whole farm. Peer failures degrade to a local miss, never an error.
package cache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"

	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
	"bristleblocks/internal/incr"
	"bristleblocks/internal/trace"
)

// Key returns the content address for one compilation: a hex SHA-256 over
// the canonical spec text, the option switches, and the compiler version.
// It relies on desc.Format being canonical (same Spec ⇒ same text), which
// the spec round-trip tests pin down. Options.Parallelism is deliberately
// left out of the hash: Pass 1's fan-out is output-invariant (the
// determinism tests pin byte-identical CIF at every pool size), so a
// serial and a parallel compile of the same spec must share one entry.
func Key(spec *core.Spec, opts *core.Options) string {
	if opts == nil {
		opts = &core.Options{}
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00", core.Version)
	fmt.Fprintf(h, "opts:%t,%t,%t,%t,%t,%t\x00", opts.SkipOptimize, opts.SkipMinimize,
		opts.SkipRotoRouter, opts.EvenPads, opts.SkipPads, opts.SkipExtraReps)
	h.Write([]byte(desc.Format(spec)))
	return hex.EncodeToString(h.Sum(nil))
}

// Result is one cached compilation: the chip statistics plus the
// representations a compile service returns (CIF mask set and the
// text/block/logical views). Its fields are the disk layer's frame (see
// disk.go), so field changes must bump core.Version.
type Result struct {
	Key     string     `json:"key"`
	Chip    string     `json:"chip"`
	Stats   core.Stats `json:"stats"`
	TimesUS TimesUS    `json:"times_us"`
	CIF     []byte     `json:"cif,omitempty"`
	Sticks  string     `json:"sticks,omitempty"`
	Text    string     `json:"text,omitempty"`
	Block   string     `json:"block,omitempty"`
	Logical string     `json:"logical,omitempty"`

	// plain memoizes, per representation, whether AppendJSON may write it
	// without encoding/json (see json.go).
	plain atomic.Uint32
}

// TimesUS records the original compile's per-pass wall-clock in
// microseconds (duration-free so the JSON is stable and readable).
type TimesUS struct {
	Core, Control, Pads, Total int64
}

// cost is the entry's size charge against the LRU byte budget.
func (r *Result) cost() int64 {
	return int64(len(r.CIF) + len(r.Sticks) + len(r.Text) + len(r.Block) + len(r.Logical) + len(r.Chip) + len(r.Key) + 256)
}

// Counters is a snapshot of the cache's activity.
type Counters struct {
	Hits, Misses, Evictions int64
	DiskHits                int64
	// PeerHits counts lookups answered by another node's shard (a subset
	// of Hits).
	PeerHits int64
	Entries  int
	Bytes    int64
}

// Cache is the compile cache. The zero value is not usable; use New.
type Cache struct {
	store *incr.Store // the memory LRU over the optional disk layer

	// peers is the farm shard tier (nil outside a farm). Set once via
	// SetPeers before serving; read without synchronization afterwards.
	peers *PeerTier

	hits, misses, peerHits atomic.Int64
}

// New returns a cache bounded to maxBytes of result payload in memory
// (maxBytes <= 0 selects 256 MiB). dir, when non-empty, enables the
// on-disk layer rooted there (created if needed), which Close releases.
// One process owns a cache directory: a second writer on it can only
// cause misses, never a wrong answer.
func New(maxBytes int64, dir string) (*Cache, error) {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	s, err := incr.Open(maxBytes, dir, logName)
	if err != nil {
		return nil, err
	}
	return &Cache{store: s}, nil
}

// Close closes the disk layer's log, if any; the cache must not be used
// afterwards.
func (c *Cache) Close() error { return c.store.Close() }

// SetPeers attaches the farm shard tier. Call once, before serving; the
// field is read lock-free on every lookup afterwards.
func (c *Cache) SetPeers(p *PeerTier) { c.peers = p }

// Peers returns the attached shard tier (nil outside a farm).
func (c *Cache) Peers() *PeerTier { return c.peers }

// Get looks the key up in memory, then on disk, then — in a farm — on the
// key's owning peer. A disk or peer hit is promoted into the memory
// layer. The returned Result is shared — callers must not mutate it.
func (c *Cache) Get(key string) (*Result, bool) {
	res, _, _ := c.GetCtx(context.Background(), key)
	return res, res != nil
}

// GetCtx is Get bounded by ctx, reporting a miss as a nil result; only
// the peer hop observes the context (local layers are synchronous memory
// and disk reads). In a farm, owner and peerErr are PeerTier.Fetch's: the
// key's owning peer when another node owns the key, and why that peer
// could not be asked. A peer failure never fails the lookup. A
// trace.Trace on the context records the lookup as a cache.lookup span,
// with its hit or miss outcome, under the context's current span; without
// one, nothing is timed.
func (c *Cache) GetCtx(ctx context.Context, key string) (res *Result, owner string, peerErr error) {
	if tr := trace.FromContext(ctx); tr != nil {
		defer func(t0 time.Time) { tr.Lookup(trace.SpanFromContext(ctx), time.Since(t0), res != nil) }(time.Now())
	}
	if res, ok := c.GetLocal(key); ok {
		c.hits.Add(1)
		return res, "", nil
	}
	if c.peers != nil {
		if res, owner, peerErr = c.peers.Fetch(ctx, key); res != nil {
			c.hits.Add(1)
			c.peerHits.Add(1)
			c.store.Put("", key, res, res.cost())
			return res, owner, nil
		}
	}
	c.misses.Add(1)
	return nil, owner, peerErr
}

// GetLocal looks the key up in the local layers only — memory, then disk
// — without touching hit/miss accounting or the peer tier. It is the
// lookup the peer-protocol serving side runs: a peer asking this node for
// a shard entry must never trigger a recursive peer fetch.
func (c *Cache) GetLocal(key string) (*Result, bool) {
	v, ok := c.store.GetDurable("", key, func(p []byte) (any, int64, error) { return decodeFrame(key, p) })
	res, _ := v.(*Result)
	return res, ok
}

// Put stores a result under key in both local layers. In a farm the
// result stays on this node, which is normally the key's owner, where
// peers look for it. After a local fallback it is not: the owner then
// compiles the key again on its next request for it.
func (c *Cache) Put(key string, res *Result) {
	buf := framePool.Get().(*[]byte)
	c.store.PutDurable("", key, res, res.cost(), func(any) ([]byte, error) {
		p, err := appendFrame((*buf)[:0], res)
		*buf = p
		return p, err
	})
	framePool.Put(buf)
}

// Counters snapshots the activity counters.
func (c *Cache) Counters() Counters {
	sc := c.store.Counters()
	return Counters{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: sc.Evictions,
		DiskHits:  sc.DiskHits,
		PeerHits:  c.peerHits.Load(),
		Entries:   sc.Entries,
		Bytes:     sc.Bytes,
	}
}

// HitRatio reports hits/(hits+misses), 0 before any traffic.
func (c *Cache) HitRatio() float64 {
	h, m := float64(c.hits.Load()), float64(c.misses.Load())
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// Compile is the read-through path for in-process callers: on a hit the
// three passes are skipped entirely; on a miss it runs core.CompileCtx,
// renders the storable representations, and fills both layers. The bool
// reports whether the result came from the cache. A trace.Trace on the
// context records the lookup (see GetCtx) ahead of any compile spans.
func (c *Cache) Compile(ctx context.Context, spec *core.Spec, opts *core.Options) (*Result, bool, error) {
	key := Key(spec, opts)
	if res, _, _ := c.GetCtx(ctx, key); res != nil {
		return res, true, nil
	}
	chip, err := core.CompileCtx(ctx, spec, opts)
	if err != nil {
		return nil, false, err
	}
	res, err := Render(chip)
	if err != nil {
		return nil, false, err
	}
	res.Key = key
	c.Put(key, res)
	return res, false, nil
}
