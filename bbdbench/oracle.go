package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bristleblocks/internal/cache"
	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
	"bristleblocks/internal/invariant"
	"bristleblocks/internal/trace"
)

// invariantEvery is the stride of the specs the oracle runs
// invariant.Check on. The check costs twice the compile itself, so running
// it on every spec made the oracle most of a cold_compile run; every
// answer is still compared byte for byte with an in-process compile. Spec
// i of seed s is specgen seed s+i (less the examples), so runs over
// invariantEvery consecutive seeds check every spec.
const invariantEvery = 4

// expectation is the oracle's answer for one spec: an in-process compile
// of the same text with the options bbd derives from the request.
type expectation struct {
	cif, sticks uint64
	// reject is bbd's error text when the compiler rejects the spec.
	reject string
	// pass3Fail is the Pass 3 time a rejected spec spent before failing.
	pass3Fail time.Duration
	// problem is an invariant violation or golden mismatch; it makes
	// every answer for the spec wrong.
	problem string
	// res is the rendered result, kept for hot_cache's in-process replay.
	res *cache.Result
	// done marks an expectation already computed in an earlier part.
	done bool
}

// expect compiles, on clients goroutines, every spec c sends that has no
// expectation yet. exp is indexed like c.specs.
func expect(ctx context.Context, c *corpus, exp []expectation) error {
	var ids []int
	for _, i := range c.requested() {
		if !exp[i].done {
			exp[i].done = true
			ids = append(ids, i)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ids) || errs[k] != nil {
					return
				}
				errs[k] = c.expectOne(ctx, ids[i], &exp[ids[i]])
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (c *corpus) expectOne(ctx context.Context, i int, e *expectation) error {
	s := c.specs[i]
	sp, err := desc.Parse(s.text)
	if err != nil {
		return fmt.Errorf("spec seed %d does not parse: %w", s.seed, err)
	}
	opts := c.options()
	tr := trace.New()
	chip, err := core.CompileCtx(trace.WithTrace(ctx, tr), sp, &opts)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		e.reject = "compile: " + err.Error()
		e.pass3Fail = spanTime(tr.Spans(), "pass.pads")
		return nil
	}
	// Edit answers are checked against a from-scratch compile alone.
	if c.workload != editSession && i%invariantEvery == 0 {
		if vs := invariant.Check(chip, nil); len(vs) > 0 {
			e.problem = "invariant: " + vs[0]
		}
	}
	res, err := cache.Render(chip)
	if err != nil {
		return fmt.Errorf("render spec seed %d: %w", s.seed, err)
	}
	e.cif, e.sticks = hashJSON(string(res.CIF)), hashJSON(res.Sticks)
	if s.golden != "" && e.problem == "" {
		e.problem = goldenDiff(s.golden, res)
	}
	if c.workload == hotCache {
		res.Key = cache.Key(sp, &opts)
		e.res = res
	}
	return nil
}

// goldenDiff compares an example chip's outputs with its checked-in
// goldens ("" when they match).
func goldenDiff(dir string, res *cache.Result) string {
	for _, g := range []struct{ file, got string }{
		{"chip.cif", string(res.CIF)},
		{"sticks.txt", res.Sticks},
	} {
		path := filepath.Join(dir, g.file)
		want, err := os.ReadFile(path)
		if err != nil {
			return "golden: " + err.Error()
		}
		if string(want) != g.got {
			return "differs from " + path
		}
	}
	return ""
}

func spanTime(spans []trace.Span, name string) time.Duration {
	for _, s := range spans {
		if s.Name == name {
			return time.Duration(s.DurUS) * time.Microsecond
		}
	}
	return 0
}

// verdict classifies every answer of the window against the oracle.
type verdict struct {
	ok       int // 2xx with the oracle's bytes
	rejected int // 422 with the oracle's error text
	wrong    int // anything else: wrong bytes, unexpected status, transport error
	notes    []string
	// rejectedSeeds are the specgen seeds Pass 3 rejected.
	rejectedSeeds []int64
}

func judge(c *corpus, outs []outcome, exp []expectation) verdict {
	var v verdict
	seen := make(map[int]bool)
	for i, o := range outs {
		si := c.order[i]
		e := &exp[si]
		var why string
		switch {
		case e.problem != "":
			why = e.problem
		case e.reject != "":
			if o.status == http.StatusUnprocessableEntity && o.msg == e.reject {
				v.rejected++
				if !seen[si] {
					seen[si] = true
					v.rejectedSeeds = append(v.rejectedSeeds, c.specs[si].seed)
				}
				continue
			}
			why = fmt.Sprintf("want 422 %q, got %d %q", e.reject, o.status, o.msg)
		case o.status != http.StatusOK:
			why = fmt.Sprintf("status %d: %s", o.status, o.msg)
		case o.cif != e.cif:
			why = "CIF differs from the in-process compile"
		case c.workload != editSession && o.sticks != e.sticks:
			why = "sticks differ from the in-process compile"
		}
		if why == "" {
			v.ok++
			continue
		}
		v.wrong++
		if len(v.notes) < 5 {
			v.notes = append(v.notes, fmt.Sprintf("request %d (spec seed %d): %s", i, c.specs[si].seed, why))
		}
	}
	return v
}
