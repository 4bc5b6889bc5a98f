package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"bristleblocks/internal/trace"
)

// TestCompileCtxCanceledBeforeStart: a dead context returns before any
// pass runs.
func TestCompileCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	chip, err := CompileCtx(ctx, testSpec(8), nil)
	if chip != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got chip=%v err=%v, want canceled", chip, err)
	}
}

// TestCompileCtxCanceledMidCompile: cancellation during Pass 1 stops the
// compile well before all three passes finish — the serving layer's
// workers depend on this to get free again.
func TestCompileCtxCanceledMidCompile(t *testing.T) {
	spec := testSpec(32)
	full, err := Compile(spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = CompileCtx(ctx, testSpec(32), nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	// An immediately-canceled compile must cost a small fraction of the
	// real thing (it may still run spec validation and bus planning).
	if total := full.Phases[trace.PhaseTotal].Dur; total > 20*time.Millisecond && elapsed > total/2 {
		t.Fatalf("canceled compile took %v of a full %v", elapsed, total)
	}
}

// TestCompileCtxDeadline: an already-expired deadline surfaces
// DeadlineExceeded, the signal the daemon maps to 504.
func TestCompileCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := CompileCtx(ctx, testSpec(8), nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestCompileBackgroundEquivalent: the plain Compile wrapper still works
// and produces the same chip as an uncanceled CompileCtx.
func TestCompileBackgroundEquivalent(t *testing.T) {
	a, err := Compile(testSpec(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileCtx(context.Background(), testSpec(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.ChipBounds != b.Stats.ChipBounds || a.Stats.CellsPlaced != b.Stats.CellsPlaced {
		t.Fatalf("context plumbing changed the output: %+v vs %+v", a.Stats, b.Stats)
	}
}
