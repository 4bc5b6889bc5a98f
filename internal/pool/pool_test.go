package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunIndexedCoversAll: every index runs exactly once at any pool size.
func TestRunIndexedCoversAll(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		var ran [n]atomic.Int32
		err := RunIndexed(context.Background(), workers, n, func(_, i int) error {
			ran[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestRunIndexedLowestError: the error returned is the lowest-index one —
// exactly what the serial loop would have reported — regardless of which
// worker fails first.
func TestRunIndexedLowestError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := RunIndexed(context.Background(), workers, 50, func(_, i int) error {
			if i == 7 || i == 23 || i == 41 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 7 failed" {
			t.Fatalf("workers=%d: err = %v, want task 7's", workers, err)
		}
	}
}

// TestRunIndexedCancel: cancellation mid-run stops dispatch and surfaces
// the context error.
func TestRunIndexedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := RunIndexed(ctx, 4, 10_000, func(_, i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if n := ran.Load(); n == 10_000 {
		t.Fatal("cancellation did not stop dispatch")
	}
}
