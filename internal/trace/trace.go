// Package trace records compile spans: one timed interval per pass, per
// element generation, and per cell stretch, tagged with the worker that ran
// it and whether the compile cache answered. The paper's compiler reported
// one wall-clock number per design ("about four minutes for a small
// chip"); a parallel service needs to see *where* a compile spent its time
// — which element dominated the fan-out, how wide the pool actually ran,
// whether the request ever reached the compiler at all.
//
// Spans are hierarchical: every span carries an ID and the ID of its
// parent, so a compile renders as a tree (compile → pass.core → gen.acc)
// rather than a flat list, and per-span attributes carry what the work
// found (cache outcome, element kind, stretch delta). WriteChrome exports
// the tree in Chrome trace_event JSON, which Perfetto and chrome://tracing
// load directly.
//
// A Trace travels in a context.Context, so the three passes and the cache
// record into it without signature changes along the call chain. Every
// method is safe on a nil *Trace or nil *Active (recording is free when
// nobody asked for it) and safe for concurrent use (Pass 1's fan-out
// records from many goroutines).
package trace

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval of a compile. Durations are microseconds so
// the JSON form is stable, integer, and readable next to cache.TimesUS.
type Span struct {
	// ID identifies the span inside its trace (1-based; 0 is "no span").
	ID int64 `json:"id"`
	// Parent is the enclosing span's ID, or 0 for a root span.
	Parent int64 `json:"parent,omitempty"`
	// Name identifies the work: "pass.core", "gen.acc0", "stretch.regbit.acc0",
	// "cache.lookup", ...
	Name string `json:"name"`
	// Pass is the pipeline stage the span belongs to: "compile", "core",
	// "control", "pads", "reps", or "cache".
	Pass string `json:"pass"`
	// Worker is the fan-out pool slot that ran the span, or -1 for work on
	// the coordinating goroutine.
	Worker int `json:"worker"`
	// StartUS is the span's start offset from the trace origin.
	StartUS int64 `json:"start_us"`
	// DurUS is the span's duration.
	DurUS int64 `json:"dur_us"`
	// Hit marks a cache.lookup span that was answered from the cache.
	Hit bool `json:"hit,omitempty"`
	// Attrs carries per-span facts: cache outcome, element kind, stretch
	// delta in λ, ...
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Pipeline stage names for Span.Pass.
const (
	PassCompile = "compile"
	PassCore    = "core"
	PassControl = "control"
	PassPads    = "pads"
	PassReps    = "reps"
	PassCache   = "cache"
)

// Coordinator is the Worker id for spans recorded outside the fan-out pool.
const Coordinator = -1

// Trace is a concurrency-safe span collector. The zero value is not
// usable; call New. A nil *Trace discards everything at no cost.
type Trace struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []Span

	// linkMu guards link, the trace's position in a distributed trace
	// (set by LinkRemote/LinkNew/LinkFromHeader in propagate.go).
	linkMu sync.Mutex
	link   Link
}

// New starts an empty trace with its origin at now.
func New() *Trace {
	return &Trace{t0: time.Now()}
}

// Origin returns the wall-clock instant all span offsets are relative to
// (the zero time on a nil receiver). Exporters that need absolute
// timestamps — OTLP's unix-nano fields — anchor on it.
func (t *Trace) Origin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.t0
}

// Active is an open span: StartSpan opened it, End closes and records it.
// Between the two, Attr tags it. An Active belongs to the goroutine that
// runs the work it measures; it is not for concurrent use (but many
// goroutines may hold distinct Actives of one Trace). All methods are
// no-ops on a nil receiver.
type Active struct {
	t      *Trace
	id     int64
	parent int64
	name   string
	pass   string
	worker int
	start  time.Duration
	hit    bool
	attrs  map[string]string
}

// StartSpan opens a span as a child of parent (nil parent = root span) and
// returns its handle. Nil-safe: a nil *Trace returns a nil *Active, whose
// methods all no-op.
func (t *Trace) StartSpan(parent *Active, name, pass string, worker int) *Active {
	if t == nil {
		return nil
	}
	a := &Active{
		t:      t,
		id:     t.nextID.Add(1),
		name:   name,
		pass:   pass,
		worker: worker,
		start:  time.Since(t.t0),
	}
	if parent != nil {
		a.parent = parent.id
	}
	return a
}

// ID reports the span's trace-local ID (0 on a nil handle).
func (a *Active) ID() int64 {
	if a == nil {
		return 0
	}
	return a.id
}

// Attr tags the open span with a key/value fact and returns the handle for
// chaining.
func (a *Active) Attr(key, value string) *Active {
	if a == nil {
		return nil
	}
	if a.attrs == nil {
		a.attrs = make(map[string]string)
	}
	a.attrs[key] = value
	return a
}

// End closes the span and records it into the trace; it is a no-op on
// a span already ended.
func (a *Active) End() {
	if a != nil && a.t != nil {
		a.endAt(time.Now())
	}
}

// endAt closes the span at the caller's instant (a phase bracket's clock
// reading) and detaches it from the trace, so a later End is a no-op.
func (a *Active) endAt(at time.Time) {
	a.t.add(Span{
		ID:      a.id,
		Parent:  a.parent,
		Name:    a.name,
		Pass:    a.pass,
		Worker:  a.worker,
		StartUS: a.start.Microseconds(),
		DurUS:   (at.Sub(a.t.t0) - a.start).Microseconds(),
		Hit:     a.hit,
		Attrs:   a.attrs,
	})
	a.t = nil
}

// Lookup records a compile-cache probe and whether it hit, as a child of
// parent (usually the request or compile root span; nil is fine).
func (t *Trace) Lookup(parent *Active, d time.Duration, hit bool) {
	if t == nil {
		return
	}
	outcome := "miss"
	if hit {
		outcome = "hit"
	}
	now := time.Now()
	a := Active{t: t, id: t.nextID.Add(1), parent: parent.ID(), name: "cache.lookup", pass: PassCache,
		worker: Coordinator, start: now.Sub(t.t0) - d, hit: hit, attrs: map[string]string{"outcome": outcome}}
	a.endAt(now)
}

func (t *Trace) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans ordered by start time (ties
// broken by name, then ID, so concurrent workers render stably). Nil-safe.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartUS != out[j].StartUS {
			return out[i].StartUS < out[j].StartUS
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// String renders the trace as an aligned table for terminal output (the
// bristlec -trace flag). Child spans indent under their parents' depth.
func (t *Trace) String() string {
	spans := t.Spans()
	if len(spans) == 0 {
		return "trace: no spans recorded\n"
	}
	depth := make(map[int64]int, len(spans))
	parent := make(map[int64]int64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	depthOf := func(id int64) int {
		d := 0
		for p := parent[id]; p != 0; p = parent[p] {
			d++
			if d > len(spans) { // defensive: a cycle cannot happen, but never loop
				break
			}
		}
		return d
	}
	for _, s := range spans {
		depth[s.ID] = depthOf(s.ID)
	}
	var sb strings.Builder
	sb.WriteString("  start(µs)    dur(µs)  worker  pass     span\n")
	for _, s := range spans {
		w := fmt.Sprintf("%d", s.Worker)
		if s.Worker == Coordinator {
			w = "-"
		}
		note := ""
		if s.Pass == PassCache {
			if s.Hit {
				note = "  (hit)"
			} else {
				note = "  (miss)"
			}
		}
		fmt.Fprintf(&sb, "  %9d  %9d  %6s  %-7s  %s%s%s\n",
			s.StartUS, s.DurUS, w, s.Pass, strings.Repeat("  ", depth[s.ID]), s.Name, note)
	}
	return sb.String()
}

// ctxKey is the context key type for a *Trace (unexported, collision-free).
type ctxKey struct{}

// spanKey is the context key type for the current *Active span.
type spanKey struct{}

// WithTrace attaches the collector to the context for the compile passes
// and the cache to record into.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the attached collector, or nil (every method of
// which is a no-op) when the context carries none.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// WithSpan marks a as the current span, so downstream StartSpan calls can
// parent under it without threading handles through signatures.
func WithSpan(ctx context.Context, a *Active) context.Context {
	return context.WithValue(ctx, spanKey{}, a)
}

// SpanFromContext returns the current span, or nil for none.
func SpanFromContext(ctx context.Context) *Active {
	a, _ := ctx.Value(spanKey{}).(*Active)
	return a
}
