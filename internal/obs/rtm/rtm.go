// Package rtm samples the Go runtime's own telemetry (runtime/metrics)
// into a stable snapshot the /metrics exporter renders as the
// bbd_runtime_* families: heap occupancy, GC cycle and pause behaviour,
// goroutine count, and scheduling latency. The zero-alloc roadmap item
// needs this baseline — "the compiler got slower" at farm scale is
// indistinguishable from "the GC got busier" without it — and the
// per-pass allocation attribution in internal/core draws its raw feed
// from ReadAllocs here.
//
// Two usage shapes: a Sampler caches snapshots behind a minimum
// interval, so scrape-driven use (every /metrics hit) costs one
// runtime/metrics.Read per interval however hot the scraper runs; or
// Start launches a background ticker for push-style consumers. Reads are
// cheap (runtime/metrics batches under one lock) but not free, hence the
// throttle rather than a read per scrape.
package rtm

import (
	"runtime/metrics"
	"sync"
	"time"
)

// Metric names sampled into a Snapshot. Every one is optional at
// runtime: a name this toolchain doesn't export (or whose kind changed)
// leaves its Snapshot field zero rather than failing the sample.
const (
	nameHeapBytes    = "/memory/classes/heap/objects:bytes"
	nameTotalBytes   = "/memory/classes/total:bytes"
	nameHeapObjects  = "/gc/heap/objects:objects"
	nameHeapGoal     = "/gc/heap/goal:bytes"
	nameGoroutines   = "/sched/goroutines:goroutines"
	nameGCCycles     = "/gc/cycles/total:gc-cycles"
	nameAllocObjects = "/gc/heap/allocs:objects"
	nameAllocBytes   = "/gc/heap/allocs:bytes"
	nameGCPause      = "/sched/pauses/total/gc:seconds"
	nameSchedLat     = "/sched/latencies:seconds"
)

// histBounds are the fixed upper bounds (seconds) both Hist fields are
// re-bucketed into: runtime/metrics histograms carry toolchain-dependent
// variable buckets, while a Prometheus series needs stable bounds across
// releases. 1µs .. 1s in decades covers both GC pauses (tens of µs to
// low ms) and sched latency tails.
var histBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// Hist is a fixed-bucket histogram ready for Prometheus exposition.
// Counts[i] holds observations ≤ Bounds[i] (non-cumulative per bucket);
// Counts[len(Bounds)] is the +Inf overflow bucket. Sum is estimated from
// source-bucket midpoints — runtime/metrics does not track exact sums —
// so rate(sum)/rate(count) is an approximation, good to a bucket width.
type Hist struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Total  uint64
}

// Snapshot is one read of the runtime's telemetry. Alloc* and GCCycles
// are cumulative since process start (monotonic counters, the right
// shape for rate() and for deltas); the rest are instantaneous gauges.
type Snapshot struct {
	When time.Time

	HeapBytes    uint64 // bytes occupied by live + unswept heap objects
	TotalBytes   uint64 // all memory mapped by the runtime
	HeapObjects  uint64 // live + unswept object count
	HeapGoal     uint64 // GC pacer's current heap-size goal
	Goroutines   uint64
	GCCycles     uint64 // completed GC cycles since start
	AllocObjects uint64 // cumulative objects allocated since start
	AllocBytes   uint64 // cumulative bytes allocated since start

	GCPause      Hist // stop-the-world GC pause durations
	SchedLatency Hist // time goroutines spend runnable before running
}

// samples is the reusable batch passed to metrics.Read. Built once; the
// runtime fills Values in place on every read.
func newSamples() []metrics.Sample {
	names := []string{
		nameHeapBytes, nameTotalBytes, nameHeapObjects, nameHeapGoal,
		nameGoroutines, nameGCCycles, nameAllocObjects, nameAllocBytes,
		nameGCPause, nameSchedLat,
	}
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	return s
}

// Read takes an unthrottled snapshot. Most callers want a Sampler; Read
// is for one-shot use (tests, CLI dumps).
func Read() Snapshot {
	s := newSamples()
	metrics.Read(s)
	return snapshotFrom(s)
}

func snapshotFrom(s []metrics.Sample) Snapshot {
	snap := Snapshot{When: time.Now()}
	for _, m := range s {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			v := m.Value.Uint64()
			switch m.Name {
			case nameHeapBytes:
				snap.HeapBytes = v
			case nameTotalBytes:
				snap.TotalBytes = v
			case nameHeapObjects:
				snap.HeapObjects = v
			case nameHeapGoal:
				snap.HeapGoal = v
			case nameGoroutines:
				snap.Goroutines = v
			case nameGCCycles:
				snap.GCCycles = v
			case nameAllocObjects:
				snap.AllocObjects = v
			case nameAllocBytes:
				snap.AllocBytes = v
			}
		case metrics.KindFloat64Histogram:
			h := m.Value.Float64Histogram()
			switch m.Name {
			case nameGCPause:
				snap.GCPause = rebucket(h)
			case nameSchedLat:
				snap.SchedLatency = rebucket(h)
			}
		}
		// KindBad (metric unknown to this toolchain) leaves the field zero.
	}
	return snap
}

// rebucket folds a runtime Float64Histogram into the fixed histBounds.
// A source bucket lands in the target bucket its midpoint falls into —
// exact when source buckets nest inside target decades (they do for the
// runtime's pause/latency buckets), midpoint-approximate otherwise.
func rebucket(h *metrics.Float64Histogram) Hist {
	out := Hist{
		Bounds: histBounds,
		Counts: make([]uint64, len(histBounds)+1),
	}
	if h == nil {
		return out
	}
	for i, count := range h.Counts {
		if count == 0 {
			continue
		}
		// Bucket i spans h.Buckets[i] .. h.Buckets[i+1]; the edge slices
		// may open at -Inf / close at +Inf.
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := pickMid(lo, hi)
		idx := len(out.Bounds) // overflow by default
		for b, bound := range out.Bounds {
			if mid <= bound {
				idx = b
				break
			}
		}
		out.Counts[idx] += count
		out.Total += count
		out.Sum += mid * float64(count)
	}
	return out
}

// pickMid chooses a representative value for a source bucket, handling
// the runtime's infinite edge buckets.
func pickMid(lo, hi float64) float64 {
	switch {
	case lo < 0 || lo != lo: // -Inf or NaN lower edge
		if hi > 0 {
			return hi / 2
		}
		return 0
	case hi > 1e18 || hi != hi: // +Inf upper edge
		return lo * 2
	default:
		return (lo + hi) / 2
	}
}

// Sampler caches snapshots behind a minimum interval so that arbitrarily
// hot scrapers cost one runtime read per interval. Safe for concurrent
// use. The zero value is not usable; call NewSampler.
type Sampler struct {
	min time.Duration
	now func() time.Time // injectable for tests

	mu      sync.Mutex
	samples []metrics.Sample
	last    Snapshot
	have    bool
}

// NewSampler returns a sampler that re-reads the runtime at most once
// per min (≤0 means every Snapshot call reads fresh).
func NewSampler(min time.Duration) *Sampler {
	return &Sampler{min: min, now: time.Now, samples: newSamples()}
}

// Snapshot returns the cached snapshot, re-reading the runtime first if
// the cache is older than the sampler's minimum interval.
func (s *Sampler) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.have && s.min > 0 && s.now().Sub(s.last.When) < s.min {
		return s.last
	}
	metrics.Read(s.samples)
	s.last = snapshotFrom(s.samples)
	s.last.When = s.now() // the sampler's clock, so tests can inject time
	s.have = true
	return s.last
}

// Start samples on a background ticker until the returned stop function
// is called, keeping the cache warm for consumers that want Snapshot to
// always be cheap. Stop is idempotent.
func (s *Sampler) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.mu.Lock()
				metrics.Read(s.samples)
				s.last = snapshotFrom(s.samples)
				s.have = true
				s.mu.Unlock()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// allocSamples is the two-entry batch ReadAllocs reuses under a lock;
// the probe sits on the compile pass boundaries, so it must not allocate
// its own batch per call.
var (
	allocMu      sync.Mutex
	allocSamples = []metrics.Sample{
		{Name: nameAllocObjects},
		{Name: nameAllocBytes},
	}
)

// ReadAllocs returns the process-cumulative allocation counters: objects
// and bytes allocated since start. Both are monotonic and GC-immune
// (frees don't subtract), so a delta across a pass is the pass's own
// allocation appetite — plus whatever other goroutines allocated
// meanwhile, which is why attribution callers compile solo or accept
// process-wide noise (documented in docs/OBSERVABILITY.md).
func ReadAllocs() (objects, bytes uint64) {
	allocMu.Lock()
	metrics.Read(allocSamples)
	if allocSamples[0].Value.Kind() == metrics.KindUint64 {
		objects = allocSamples[0].Value.Uint64()
	}
	if allocSamples[1].Value.Kind() == metrics.KindUint64 {
		bytes = allocSamples[1].Value.Uint64()
	}
	allocMu.Unlock()
	return objects, bytes
}
