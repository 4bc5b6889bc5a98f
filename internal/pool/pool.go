// Package pool is the bounded worker pool shared by the compile passes.
// Pass 1's element and stretch fan-outs pull ascending indices from a pool
// of at most Options.Parallelism goroutines (RunIndexed), and Pass 3's
// rip-up ladder race sizes its pool with Size; the sizing lives here so
// both passes share it without an import cycle (pads cannot import core).
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Size resolves the Options.Parallelism knob: <=0 selects GOMAXPROCS, and
// the pool never exceeds the number of work items.
func Size(parallelism, items int) int {
	p := parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > items {
		p = items
	}
	if p < 1 {
		p = 1
	}
	return p
}

// RunIndexed runs fn(worker, i) for every i in [0, n) on a pool of at most
// workers goroutines, pulling indices in ascending order.
//
// Error behaviour matches the serial loop exactly: indices are dispatched
// in order and dispatch stops at the first failure, so every index below a
// failing one has already been dispatched and allowed to finish — the
// lowest-index error is therefore the same error the serial loop would
// have returned, and RunIndexed returns that one. Context cancellation
// stops dispatch the same way and reports ctx.Err() if no task error
// outranks it.
func RunIndexed(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if n == 0 {
		return nil
	}
	workers = Size(workers, n)
	if workers == 1 {
		// The serial path stays a plain loop: no goroutines to schedule,
		// nothing for the race detector to interleave, and the behaviour
		// the parallel path is specified against.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64 // next index to claim
		failed  atomic.Bool  // stops further dispatch
		errs    = make([]error, n)
		wg      sync.WaitGroup
		ctxDone = ctx.Done()
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				select {
				case <-ctxDone:
					failed.Store(true)
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(worker, i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
