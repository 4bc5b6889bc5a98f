// Package incr is the incremental compiler's content-addressed artifact
// store, and the byte-budgeted store under internal/cache as well. Where
// internal/cache memoizes whole compilations (spec in, mask set out), incr
// works at the paper's natural reuse boundary — the procedural cell. Each
// Pass 1 unit (an element's generated columns, a cell's stretch result)
// and each downstream pass product (the decoder, the pad ring) is keyed by
// a SHA-256 over everything that can change it: element kind and
// parameters, the voted globals that reach it (pitch and rail widening),
// its bus context, and core.Version. An edited spec then reuses every
// unchanged artifact and pays only for the delta.
//
// Entries live in a byte-budgeted in-memory LRU over an optional disk
// layer, an internal/keylog log in the store's directory. Values whose
// caller supplies a codec (GetDurable/PutDurable) are written through to
// it and promoted back into memory on a disk hit. The compile cache keeps
// its two local layers in one Store (results.log); every artifact store
// opened today — bbd sessions, bristlec -watch, the invariant harness —
// is memory-only (New with no directory), so stretched cells, the one
// artifact kind with a codec, never reach an artifacts.log in practice.
//
// Keys carry a second identity, the group: the stable name of the slot the
// artifact fills ("gen:<chip>:<elem>", "st:<cell-id>", ...). Putting a new
// key under an occupied group is an invalidation — the previous variant is
// evicted eagerly and counted — which is how "a one-line edit invalidated
// exactly these cells" becomes an observable number.
//
// A *Store travels in a context.Context (WithStore/FromContext), so the
// three passes consult it without signature changes; every method is safe
// on a nil *Store, and a nil store reproduces the uncached behavior
// exactly.
package incr

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"

	"bristleblocks/internal/keylog"
)

// Key returns the content address for one artifact: a hex SHA-256 over the
// parts, NUL-separated so adjacent parts cannot alias ("ab","c" vs
// "a","bc"). Callers put core.Version first so a compiler upgrade
// invalidates every artifact at once.
func Key(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Counters is a snapshot of the store's activity.
type Counters struct {
	// Hits and Misses count Get outcomes (a disk hit is also a hit).
	Hits, Misses int64
	// Evictions counts entries dropped by the LRU byte budget.
	Evictions int64
	// Invalidations counts entries displaced by a new variant of their
	// group — the artifacts a spec edit actually dirtied.
	Invalidations int64
	// DiskHits counts Gets answered by the disk layer.
	DiskHits int64
	// Entries and Bytes describe the resident memory layer.
	Entries int
	Bytes   int64
}

// Add adds o's counters, field by field, into c: the one sum every total
// over several stores goes through.
func (c *Counters) Add(o Counters) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Evictions += o.Evictions
	c.Invalidations += o.Invalidations
	c.DiskHits += o.DiskHits
	c.Entries += o.Entries
	c.Bytes += o.Bytes
}

// Store is the artifact store. The zero value is not usable; use New. A
// nil *Store is valid everywhere and behaves as "no caching".
type Store struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	lru      *list.List // front = most recent; values are *entry
	byKey    map[string]*list.Element
	// byGroup maps a group to its current key, so a Put under an occupied
	// group can evict the stale variant and count the invalidation.
	byGroup map[string]string

	disk *keylog.Log // nil when no directory is configured

	hits, misses, evictions, invalidations, diskHits atomic.Int64
}

type entry struct {
	key   string
	group string
	val   any
	cost  int64
}

// New returns a store bounded to maxBytes of artifact cost in memory
// (maxBytes <= 0 selects 64 MiB). dir, when non-empty, enables the on-disk
// layer, artifacts.log in dir (created if needed), which Close releases.
func New(maxBytes int64, dir string) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return Open(maxBytes, dir, "artifacts.log")
}

// Open is New with the budget taken as given (the LRU always keeps its
// newest entry) and the disk layer's log named: dir/name. One process
// owns a directory's log: a second writer can only cause misses.
func Open(maxBytes int64, dir, name string) (*Store, error) {
	s := &Store{
		maxBytes: maxBytes,
		lru:      list.New(),
		byKey:    make(map[string]*list.Element),
		byGroup:  make(map[string]string),
	}
	if dir != "" {
		l, err := keylog.Open(dir, name)
		if err != nil {
			return nil, err
		}
		s.disk = l
	}
	return s, nil
}

// Close closes the disk layer's log, if any; the store must not be used
// afterwards. Nil-safe.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	return s.disk.Close()
}

// Get looks key up in the memory layer. The returned artifact is shared —
// callers must treat it as immutable (clone what they intend to mutate).
// Nil-safe: a nil store always misses without counting.
func (s *Store) Get(key string) (any, bool) { return s.GetDurable("", key, nil) }

// GetDurable is Get with a disk fallback: on a memory miss it consults the
// disk layer and, when the blob is present, decodes it via decode (which
// returns the artifact and its memory cost) and promotes it into the
// memory layer under group. Decode failures are treated as misses and the
// blob is dropped. A nil decode skips the disk layer. Nil-safe.
func (s *Store) GetDurable(group, key string, decode func([]byte) (any, int64, error)) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		v := el.Value.(*entry).val
		s.mu.Unlock()
		s.hits.Add(1)
		return v, true
	}
	s.mu.Unlock()

	if decode != nil {
		if blob, ok := s.disk.Get(key); ok {
			if v, cost, err := decode(blob); err == nil {
				s.hits.Add(1)
				s.diskHits.Add(1)
				s.insert(group, key, v, cost)
				return v, true
			}
			s.disk.Drop(key)
		}
	}
	s.misses.Add(1)
	return nil, false
}

// Put stores an artifact in the memory layer under (group, key), charging
// cost bytes against the LRU budget. A different key already holding the
// group is invalidated (evicted and counted). Nil-safe no-op.
func (s *Store) Put(group, key string, val any, cost int64) { s.PutDurable(group, key, val, cost, nil) }

// PutDurable is Put with disk write-through: encode renders the artifact
// to the blob stored on disk (best effort — disk errors never fail a
// compile). The blob is written before PutDurable returns and not kept,
// so encode may fill a buffer its caller reuses. Without a disk layer or
// an encode it is exactly Put. Nil-safe no-op.
func (s *Store) PutDurable(group, key string, val any, cost int64, encode func(any) ([]byte, error)) {
	if s == nil {
		return
	}
	s.insert(group, key, val, cost)
	if s.disk != nil && encode != nil {
		if blob, err := encode(val); err == nil {
			s.disk.Put(key, blob)
		}
	}
}

func (s *Store) insert(group, key string, val any, cost int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A new variant displacing the group's current entry is the signal a
	// spec edit dirtied this slot; the stale artifact can never be asked
	// for again by this group, so evict it eagerly.
	if group != "" {
		if old, ok := s.byGroup[group]; ok && old != key {
			if el, ok := s.byKey[old]; ok {
				s.removeLocked(el)
				s.invalidations.Add(1)
			}
		}
		s.byGroup[group] = key
	}
	if el, ok := s.byKey[key]; ok {
		e := el.Value.(*entry)
		s.bytes += cost - e.cost
		e.val, e.cost, e.group = val, cost, group
		s.lru.MoveToFront(el)
	} else {
		s.byKey[key] = s.lru.PushFront(&entry{key: key, group: group, val: val, cost: cost})
		s.bytes += cost
	}
	for s.bytes > s.maxBytes && s.lru.Len() > 1 {
		back := s.lru.Back()
		s.removeLocked(back)
		s.evictions.Add(1)
	}
}

// removeLocked drops an entry and, when it is its group's current variant,
// the group pointer with it. Caller holds s.mu.
func (s *Store) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	s.lru.Remove(el)
	delete(s.byKey, e.key)
	s.bytes -= e.cost
	if e.group != "" && s.byGroup[e.group] == e.key {
		delete(s.byGroup, e.group)
	}
}

// Counters snapshots the activity counters. Nil-safe (all zero).
func (s *Store) Counters() Counters {
	if s == nil {
		return Counters{}
	}
	s.mu.Lock()
	entries, bytes := s.lru.Len(), s.bytes
	s.mu.Unlock()
	return Counters{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Evictions:     s.evictions.Load(),
		Invalidations: s.invalidations.Load(),
		DiskHits:      s.diskHits.Load(),
		Entries:       entries,
		Bytes:         bytes,
	}
}

// HitRatio reports hits/(hits+misses), 0 before any traffic. Nil-safe.
func (s *Store) HitRatio() float64 {
	if s == nil {
		return 0
	}
	h, m := float64(s.hits.Load()), float64(s.misses.Load())
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// ctxKey is the context key type for a *Store (unexported, collision-free).
type ctxKey struct{}

// WithStore attaches the artifact store to the context for the compiler
// passes to consult.
func WithStore(ctx context.Context, s *Store) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the attached store, or nil (every method of which
// no-ops into uncached behavior) when the context carries none.
func FromContext(ctx context.Context) *Store {
	s, _ := ctx.Value(ctxKey{}).(*Store)
	return s
}
