package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"bristleblocks/internal/cache"
	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
	"bristleblocks/internal/incr"
	"bristleblocks/internal/invariant"
	"bristleblocks/internal/obs"
	"bristleblocks/internal/server"
	"bristleblocks/internal/trace"
)

// How much of the corpus the traced run replays, and how many requests
// the queue-wait server sees.
const (
	coldLayerSpecs    = 400
	hotLayerRequests  = 4000
	editLayerChains   = 40
	queueWaitRequests = 600
)

// passNames are core.CompileCtx's pass spans, in pipeline order.
var passNames = [4]string{"pass.core", "pass.control", "pass.pads", "pass.representations"}

// layers accumulates the traced run: every request replayed in process
// by calling the public functions bbd's handler calls, in handler order,
// each timed from here. Pass self-times and allocations come from the
// spans core.CompileCtx records when a trace.Trace rides the context.
// Each request runs twice, traced and plain, in alternating order, so
// trace.overhead_pct compares like with like; only traced runs book
// layer time.
type layers struct {
	requests, compiles, hits, edits int

	parse, key, lookup, hitLookup time.Duration
	render, put, verify, encode   time.Duration
	pass                          [4]time.Duration
	glue                          time.Duration
	allocs                        [4]float64
	allocBytes                    float64
	respBytes                     int

	cellsExpanded, routeNets, routeConflicts, routeRetries int64

	gen, stretch, p2 hitCount
	invalidations    int64

	traced, plain []time.Duration
}

type hitCount struct{ hit, miss int }

func (h hitCount) ratio() float64 { return div(float64(h.hit), float64(h.hit+h.miss)) }

// clock splits a request's wall time into layers.
type clock struct {
	t  time.Time
	on bool // book into the accumulators (traced runs only)
}

// lap ends the current layer, charging its time to acc.
func (c *clock) lap(acc *time.Duration) time.Duration {
	now := time.Now()
	d := now.Sub(c.t)
	c.t = now
	if c.on {
		*acc += d
	}
	return d
}

// serveCompile replays one /compile request in handler order: parse,
// key, lookup; on a miss the worker's cache.CompileChip (key, lookup,
// CompileCtx, Render, Put) and the verify hook; then the JSON encode.
func (l *layers) serveCompile(ctx context.Context, text string, c *cache.Cache, opts core.Options, traced bool, buf *bytes.Buffer) error {
	start := time.Now()
	clk := clock{t: start, on: traced}
	spec, err := desc.Parse(text)
	if err != nil {
		return err
	}
	clk.lap(&l.parse)
	key := cache.Key(spec, &opts)
	clk.lap(&l.key)
	res, hit := c.Get(key)
	if d := clk.lap(&l.lookup); hit && traced {
		l.hitLookup += d
		l.hits++
	}
	var (
		tr          *trace.Trace
		chip        *core.Chip
		compileWall time.Duration
	)
	if !hit {
		key = cache.Key(spec, &opts)
		clk.lap(&l.key)
		c.Get(key)
		clk.lap(&l.lookup)
		cctx := ctx
		if traced {
			tr = trace.New()
			cctx = trace.WithTrace(ctx, tr)
		}
		if chip, err = core.CompileCtx(cctx, spec, &opts); err != nil {
			return err
		}
		compileWall = clk.lap(new(time.Duration))
		if res, err = cache.Render(chip); err != nil {
			return err
		}
		clk.lap(&l.render)
		res.Key = key
		c.Put(key, res)
		clk.lap(&l.put)
		invariant.LogicSim(cctx, chip, nil)
		clk.lap(&l.verify)
	}
	resp := &server.CompileResponse{
		RequestID: obs.NewRequestID(),
		Chip:      res.Chip,
		Key:       res.Key,
		Cached:    hit,
		Stats:     res.Stats,
		TimesUS:   res.TimesUS,
		CIF:       string(res.CIF),
		Sticks:    res.Sticks,
	}
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(resp); err != nil {
		return err
	}
	clk.lap(&l.encode)
	l.finish(traced, time.Since(start), buf.Len())
	if tr != nil {
		l.compiled(tr.Spans(), compileWall, chip, false)
	}
	return nil
}

// serveSession replays one /session/{id}/compile request in handler
// order: parse, CompileCtx against the session's artifact store, Render,
// the two keys (flight record and response), then the JSON encode. edit
// is false for a session's base compile.
func (l *layers) serveSession(ctx context.Context, text string, store *incr.Store, edit, traced bool, buf *bytes.Buffer) error {
	start := time.Now()
	clk := clock{t: start, on: traced}
	spec, err := desc.Parse(text)
	if err != nil {
		return err
	}
	clk.lap(&l.parse)
	opts := core.Options{Parallelism: 1, SkipPads: true}
	cctx := incr.WithStore(ctx, store)
	var tr *trace.Trace
	if traced {
		tr = trace.New()
		cctx = trace.WithTrace(cctx, tr)
	}
	before := store.Counters()
	chip, err := core.CompileCtx(cctx, spec, &opts)
	if err != nil {
		return err
	}
	compileWall := clk.lap(new(time.Duration))
	res, err := cache.Render(chip)
	if err != nil {
		return err
	}
	clk.lap(&l.render)
	after := store.Counters()
	cache.Key(spec, &opts)
	key := cache.Key(spec, &opts)
	clk.lap(&l.key)
	resp := &server.CompileResponse{
		RequestID: obs.NewRequestID(),
		Chip:      res.Chip,
		Key:       key,
		Stats:     res.Stats,
		TimesUS:   res.TimesUS,
		CIF:       string(res.CIF),
		Incr: &server.IncrCounters{
			Hits:          after.Hits - before.Hits,
			Misses:        after.Misses - before.Misses,
			Invalidations: after.Invalidations - before.Invalidations,
			Evictions:     after.Evictions - before.Evictions,
			Entries:       after.Entries,
			Bytes:         after.Bytes,
			HitRatio:      store.HitRatio(),
		},
	}
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(resp); err != nil {
		return err
	}
	clk.lap(&l.encode)
	l.finish(traced, time.Since(start), buf.Len())
	if traced {
		l.compiled(tr.Spans(), compileWall, chip, edit)
		if edit {
			l.edits++
			l.invalidations += after.Invalidations - before.Invalidations
		}
	}
	return nil
}

func (l *layers) finish(traced bool, wall time.Duration, size int) {
	if !traced {
		l.plain = append(l.plain, wall)
		return
	}
	l.traced = append(l.traced, wall)
	l.requests++
	l.respBytes += size
}

// compiled books one traced compile: pass self-times and allocations
// from its spans, glue as the rest of its wall time, the router's
// counters, and (edits only) the artifact-store outcomes the spans carry.
func (l *layers) compiled(spans []trace.Span, wall time.Duration, chip *core.Chip, edit bool) {
	l.compiles++
	inPasses := time.Duration(0)
	for _, s := range spans {
		for p, name := range passNames {
			if s.Name == name {
				d := time.Duration(s.DurUS) * time.Microsecond
				l.pass[p] += d
				inPasses += d
				l.allocs[p] += attr(s, "allocs")
			}
		}
		if s.Name == "compile" {
			l.allocBytes += attr(s, "alloc_bytes")
		}
		if !edit {
			continue
		}
		var h *hitCount
		switch {
		case strings.HasPrefix(s.Name, "gen."):
			h = &l.gen
		case strings.HasPrefix(s.Name, "stretch."):
			h = &l.stretch
		case s.Name == "pass.control":
			h = &l.p2
		default:
			continue
		}
		switch s.Attrs["cache"] {
		case "hit":
			h.hit++
		case "miss":
			h.miss++
		}
	}
	l.glue += wall - inPasses
	st := chip.Stats
	l.cellsExpanded += st.RouteCellsExpanded
	l.routeNets += st.RouteNets
	l.routeConflicts += st.RouteConflicts
	l.routeRetries += st.RouteRetries
}

func attr(s trace.Span, key string) float64 {
	v, _ := strconv.ParseFloat(s.Attrs[key], 64) // absent reads as 0
	return v
}

// attributed is the sum of every layer's self-time.
func (l *layers) attributed() time.Duration {
	t := l.parse + l.key + l.lookup + l.render + l.put + l.verify + l.encode
	for _, p := range l.pass {
		t += p
	}
	return t
}

// replayLayers runs the traced replay over a prefix of the corpus,
// serially, so the process-wide allocation counters the pass spans read
// attribute cleanly.
func replayLayers(ctx context.Context, c *corpus, exp []expectation, work string) (*layers, error) {
	l := &layers{}
	var buf bytes.Buffer
	opts := c.options()
	switch c.workload {
	case coldCompile:
		// Two disk-backed caches, so each run of a spec misses.
		tc, err := cache.New(0, filepath.Join(work, "layers-traced"))
		if err != nil {
			return nil, err
		}
		pc, err := cache.New(0, filepath.Join(work, "layers-plain"))
		if err != nil {
			return nil, err
		}
		n := 0
		for _, si := range c.order {
			if n == coldLayerSpecs {
				break
			}
			if exp[si].reject != "" {
				continue // rejections are booked from the oracle's spans
			}
			for k := 0; k < 2; k++ {
				traced := (n+k)%2 == 0
				cc := pc
				if traced {
					cc = tc
				}
				if err := l.serveCompile(ctx, c.specs[si].text, cc, opts, traced, &buf); err != nil {
					return nil, err
				}
			}
			n++
		}
	case hotCache:
		hc, err := cache.New(0, "")
		if err != nil {
			return nil, err
		}
		for _, e := range exp {
			if e.res != nil {
				hc.Put(e.res.Key, e.res)
			}
		}
		for n, si := range c.order[:min(len(c.order), hotLayerRequests)] {
			for k := 0; k < 2; k++ {
				if err := l.serveCompile(ctx, c.specs[si].text, hc, opts, (n+k)%2 == 0, &buf); err != nil {
					return nil, err
				}
			}
		}
	case editSession:
		for _, chain := range c.chains[:min(len(c.chains), editLayerChains)] {
			// One store per variant, each walking the same edit chain.
			ts, err := incr.New(64<<20, "")
			if err != nil {
				return nil, err
			}
			ps, err := incr.New(64<<20, "")
			if err != nil {
				return nil, err
			}
			for j, si := range chain {
				for k := 0; k < 2; k++ {
					traced := (j+k)%2 == 0
					st := ps
					if traced {
						st = ts
					}
					if err := l.serveSession(ctx, c.specs[si].text, st, j > 0, traced, &buf); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return l, ctx.Err()
}

// arrivalKey carries the time a request reached the handler.
type arrivalKey struct{}

// queueWait serves the corpus's first n requests from an in-process
// server.New configured as bbd's defaults configure it, with clients
// closed-loop clients, and returns each cold compile's wait from
// reaching the handler to Config.BeforeCompile in a worker.
func queueWait(ctx context.Context, c *corpus, n int, dir string) ([]time.Duration, error) {
	cc, err := cache.New(0, dir)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var waits []time.Duration
	srv, err := server.New(server.Config{
		Cache:       cc,
		Parallelism: 1,
		BeforeCompile: func(ctx context.Context) {
			if t, ok := ctx.Value(arrivalKey{}).(time.Time); ok {
				mu.Lock()
				waits = append(waits, time.Since(t))
				mu.Unlock()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), arrivalKey{}, time.Now())))
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	sub := *c
	sub.order = c.order[:min(len(c.order), n)]
	newLoadgen("http://"+ln.Addr().String()).replay(ctx, &sub)
	_ = hs.Shutdown(ctx) // every request has been answered
	<-served
	if err := srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	return waits, ctx.Err()
}
