package trace

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTraceIsFree: every method no-ops on a nil collector — the
// compiler records unconditionally, so this is the untraced fast path.
func TestNilTraceIsFree(t *testing.T) {
	var tr *Trace
	tr.StartSpan(nil, "gen.x", PassCore, 0).End()
	tr.Lookup(nil, time.Millisecond, true)
	a := tr.StartSpan(nil, "gen.y", PassCore, 0)
	if a != nil {
		t.Fatal("nil trace returned a live span handle")
	}
	a.Attr("k", "v")
	a.End()
	if a.ID() != 0 {
		t.Fatal("nil span has a non-zero ID")
	}
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil trace returned spans: %v", got)
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context returned a trace")
	}
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context returned a span")
	}
}

// TestRoundTrip: spans survive the context, record worker and hit data,
// and come back sorted by start offset.
func TestRoundTrip(t *testing.T) {
	tr := New()
	ctx := WithTrace(context.Background(), tr)
	got := FromContext(ctx)
	if got != tr {
		t.Fatal("context did not carry the trace")
	}
	end := got.StartSpan(nil, "pass.core", PassCore, Coordinator).End
	got.StartSpan(nil, "gen.alu", PassCore, 2).End()
	end()
	got.Lookup(nil, time.Millisecond, false)

	spans := got.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartUS < spans[i-1].StartUS {
			t.Fatal("spans not sorted by start")
		}
	}
	s := got.String()
	for _, want := range []string{"pass.core", "gen.alu", "cache.lookup", "(miss)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

// TestHierarchy: StartSpan parents correctly, attributes stick, the cache
// lookup records its outcome attribute, and the span travels in a context.
func TestHierarchy(t *testing.T) {
	tr := New()
	root := tr.StartSpan(nil, "compile", PassCompile, Coordinator)
	ctx := WithSpan(context.Background(), root)
	core := tr.StartSpan(SpanFromContext(ctx), "pass.core", PassCore, Coordinator)
	gen := tr.StartSpan(core, "gen.acc", PassCore, 3).Attr("kind", "registers")
	gen.End()
	core.End()
	tr.Lookup(root, time.Millisecond, true)
	root.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["compile"].Parent != 0 {
		t.Fatalf("compile is not a root: parent=%d", byName["compile"].Parent)
	}
	if byName["pass.core"].Parent != byName["compile"].ID {
		t.Fatal("pass.core does not parent under compile")
	}
	if byName["gen.acc"].Parent != byName["pass.core"].ID {
		t.Fatal("gen.acc does not parent under pass.core")
	}
	if byName["gen.acc"].Attrs["kind"] != "registers" {
		t.Fatalf("gen.acc attrs = %v", byName["gen.acc"].Attrs)
	}
	if byName["cache.lookup"].Attrs["outcome"] != "hit" {
		t.Fatalf("lookup attrs = %v", byName["cache.lookup"].Attrs)
	}
	if byName["cache.lookup"].Parent != byName["compile"].ID {
		t.Fatal("cache.lookup does not parent under compile")
	}
}

// TestConcurrentRecording: many goroutines recording into one trace (the
// fan-out shape) lose nothing and stay race-clean.
func TestConcurrentRecording(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.StartSpan(nil, "gen.x", PassCore, w).End()
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 800 {
		t.Fatalf("got %d spans, want 800", got)
	}
}

// TestConcurrentNestedSpans fans 64 goroutines into one Trace, each
// opening a worker span under a shared root and nesting child spans with
// attributes beneath it — the exact shape of Pass 1's fan-out under a
// parallel daemon. Run under -race (CI does), this is the concurrency
// contract for hierarchical recording: no lost spans, parent links intact
// from every leaf to the root, unique IDs, and Spans() ordering stable
// across reads.
func TestConcurrentNestedSpans(t *testing.T) {
	const workers = 64
	const children = 16

	tr := New()
	root := tr.StartSpan(nil, "compile", PassCompile, Coordinator)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := tr.StartSpan(root, fmt.Sprintf("gen.e%d", w), PassCore, w)
			for i := 0; i < children; i++ {
				tr.StartSpan(ws, fmt.Sprintf("stretch.e%d.c%d", w, i), PassCore, w).
					Attr("delta_lambda", fmt.Sprint(i)).End()
			}
			ws.End()
		}(w)
	}
	wg.Wait()
	root.End()

	spans := tr.Spans()
	want := 1 + workers + workers*children
	if len(spans) != want {
		t.Fatalf("got %d spans, want %d", len(spans), want)
	}

	ids := make(map[int64]Span, len(spans))
	for _, s := range spans {
		if s.ID == 0 {
			t.Fatal("span with zero ID")
		}
		if _, dup := ids[s.ID]; dup {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		ids[s.ID] = s
	}
	roots := 0
	for _, s := range spans {
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := ids[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s) has dangling parent %d", s.ID, s.Name, s.Parent)
		}
		switch {
		case strings.HasPrefix(s.Name, "gen."):
			if p.Name != "compile" {
				t.Fatalf("%s parents under %s, want compile", s.Name, p.Name)
			}
		case strings.HasPrefix(s.Name, "stretch."):
			if !strings.HasPrefix(p.Name, "gen.") {
				t.Fatalf("%s parents under %s, want a gen span", s.Name, p.Name)
			}
			// stretch.eW.cI must sit under gen.eW — same worker's subtree.
			if p.Worker != s.Worker {
				t.Fatalf("%s (worker %d) parents under %s (worker %d)", s.Name, s.Worker, p.Name, p.Worker)
			}
		default:
			t.Fatalf("unexpected span %q", s.Name)
		}
	}
	if roots != 1 {
		t.Fatalf("got %d roots, want exactly the compile span", roots)
	}

	// Ordering is a pure function of the recorded set: two reads agree.
	again := tr.Spans()
	for i := range spans {
		if spans[i].ID != again[i].ID {
			t.Fatalf("unstable ordering at %d: %v vs %v", i, spans[i], again[i])
		}
	}
	for i := 1; i < len(spans); i++ {
		a, b := spans[i-1], spans[i]
		if a.StartUS > b.StartUS {
			t.Fatal("spans not sorted by start")
		}
		if a.StartUS == b.StartUS && a.Name > b.Name {
			t.Fatal("start ties not broken by name")
		}
		if a.StartUS == b.StartUS && a.Name == b.Name && a.ID >= b.ID {
			t.Fatal("name ties not broken by ID")
		}
	}
}
