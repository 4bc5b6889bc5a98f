// Package pads implements Pass 3 of the compiler: "The pad layout pass
// begins by collecting all of the connection points which need to be
// connected to pads. These connection points are sorted in clockwise
// order, and pads are allocated in the same order. The pads and connection
// points are examined by a Roto-Router, which rotates the pads around the
// perimeter of the chip in an attempt to minimize the length of wire
// between pads and connection points. The Roto-Router spaces the pads
// evenly around the chip to avoid generating pad layouts that would be
// difficult to bond. The third pass concludes by adding wires between the
// pads and the connection points."
package pads

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"bristleblocks/internal/celllib"
	"bristleblocks/internal/geom"
	"bristleblocks/internal/layer"
	"bristleblocks/internal/mask"
	"bristleblocks/internal/route"
)

// Request is one pad-needing connection point, in chip coordinates.
type Request struct {
	Net   string
	Class string // pad class (input, output, io, phi1, phi2, vdd, gnd)
	At    geom.Point
	Layer layer.Layer
	// Outward optionally gives the unit direction pointing away from the
	// blocked region at At; zero means "infer from the core bounds".
	Outward geom.Point
}

// sharedClasses lists pad classes where multiple requests of the same net
// share one pad (clocks and supplies).
var sharedClasses = map[string]bool{"phi1": true, "phi2": true, "vdd": true, "gnd": true}

// Wire is one routed pad wire.
type Wire struct {
	Net  string
	Path []geom.Point
	Len  geom.Coord

	target  Request
	outward geom.Point
}

// Ring is the assembled pad ring.
type Ring struct {
	// Cell holds the pad instances and wires (to be placed over the chip).
	Cell *mask.Cell
	// Wires lists the routed connections.
	Wires []Wire
	// TotalWireLen is the routed wire length; EstimatedLen the Manhattan
	// estimate the Roto-Router optimized.
	TotalWireLen geom.Coord
	EstimatedLen geom.Coord
	// Rotation is the chosen Roto-Router rotation; NaiveLen and WorstLen
	// are the Manhattan estimates at the unrotated and worst rotations
	// (the A2 ablation).
	Rotation int
	NaiveLen geom.Coord
	WorstLen geom.Coord
	// Bounds is the outer boundary of the chip including pads.
	Bounds geom.Rect
	// PadCount is the number of pads placed.
	PadCount int
	// RouteStats aggregates the routing work across every rip-up attempt
	// of the build (deterministic for a given input).
	RouteStats RouteStats
}

// RouteStats counts Pass 3's routing work. Every counter is a pure
// function of the input, so the determinism tests may compare them across
// pool sizes. The counters report the ladder's work, rip-up attempts
// replayed from the memo included, not the cells the CPU actually
// expanded.
type RouteStats struct {
	// Nets is the number of routing units routed (one unit = one pad's net
	// with all its branch targets), including units of failed rip-up
	// attempts that routed before the failure.
	Nets int64
	// CellsExpanded and FrontierPeak summarize the searches (see
	// route.SearchStats).
	CellsExpanded int64
	FrontierPeak  int64
}

// add merges o into s (FrontierPeak by max).
func (s *RouteStats) add(o route.SearchStats) {
	s.CellsExpanded += o.CellsExpanded
	if o.FrontierPeak > s.FrontierPeak {
		s.FrontierPeak = o.FrontierPeak
	}
}

// merge folds another attempt's stats into s (FrontierPeak by max).
func (s *RouteStats) merge(o RouteStats) {
	s.Nets += o.Nets
	s.CellsExpanded += o.CellsExpanded
	if o.FrontierPeak > s.FrontierPeak {
		s.FrontierPeak = o.FrontierPeak
	}
}

// Options tunes the pad pass.
type Options struct {
	// Moat is the routing gap between the core boundary and the pads
	// (default 80λ).
	Moat geom.Coord
	// SkipRotoRouter pins rotation 0 (the A2 ablation).
	SkipRotoRouter bool
	// EvenSpacing places pad slots at the exact even division of the
	// perimeter instead of pulling them toward their connection points —
	// the paper's "evenly spaced around the chip" user option (pulled is
	// the default because it shortens every wire).
	EvenSpacing bool
	// Obstacles, when non-empty, replaces the core bounds as the blocked
	// region: each rectangle is blocked separately (e.g. core and decoder
	// blocks of different widths), while the ring is still sized around
	// the bounds passed to Build. Requests should carry Outward hints.
	Obstacles []geom.Rect
}

// placed pairs a request with its assigned slot.
type placed struct {
	req Request
	s   slot
}

// slot is one evenly spaced pad position.
type slot struct {
	side   int        // 0=N,1=E,2=S,3=W (clockwise from north)
	center geom.Point // bond pad center
	stub   geom.Point // wire attach point (inner edge)
	t      geom.Transform
}

// Build runs Pass 3 around the given core boundary. If routing congests
// at the default moat width, the moat widens and the pass retries (wire
// length minimization is still the Roto-Router's job; the moat only sets
// how many routing tracks exist).
func Build(coreBounds geom.Rect, reqs []Request, opts *Options) (*Ring, error) {
	return BuildCtx(context.Background(), coreBounds, reqs, opts)
}

// BuildCtx is Build with cancellation: the context is checked between
// rip-up attempts and before each routed unit, so a cancelled compile
// stops mid-attempt.
func BuildCtx(ctx context.Context, coreBounds geom.Rect, reqs []Request, opts *Options) (*Ring, error) {
	if opts == nil {
		opts = &Options{}
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("pads: no pad requests")
	}
	moat := opts.Moat
	if moat <= 0 {
		// Room for the reserved band (16λ), the ring-edge strip (14λ), and
		// half a dozen 14λ routing tracks.
		moat = geom.L(140)
	}

	// Walk the (moat, strategy) ladder in priority order: every strategy
	// at each moat, the moat widening by half when a whole row congests.
	// The first combo that routes wins; RouteStats cover every combo tried
	// up to it. One router serves every combo and rip-up attempt.
	bufs := &routeBufs{}
	var rs RouteStats
	var err error
	for attempt, m := 0, moat; attempt < 6; attempt, m = attempt+1, m+m/2 {
		for _, st := range strategies {
			var ring *Ring
			ring, err = buildAttemptStrategy(ctx, coreBounds, reqs, opts, m, st, &rs, bufs)
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			if err == nil {
				ring.RouteStats = rs
				return ring, nil
			}
		}
	}
	return nil, err
}

func buildAttempt(coreBounds geom.Rect, reqs []Request, opts *Options, moat geom.Coord) (*Ring, error) {
	var rs RouteStats
	return buildAttemptStrategy(context.Background(), coreBounds, reqs, opts, moat, strategies[0], &rs, &routeBufs{})
}

// strategy is one rung of the rip-up ladder's row: how it orders a
// placement's routing units and breaks its searches' ties, and the seed of
// its rip-up shuffle.
type strategy struct {
	// river orders the units by target angle from a cut angle no wire's
	// arc covers, so the ring becomes a channel routed in river order, and
	// routes them with the core-hugging tie-break (route.Router.Hug): each
	// wire takes the innermost free track and the next one nests around
	// it. Without river (or when every angle is covered) units go in order
	// of stub-to-target distance; without it, searches are plain FIFO.
	river bool
	seed  int64
}

// strategies is the ladder's row, in priority order: river order, then
// distance order as the fallback. Distance order does not nest its wires,
// so hugging there walls outer wires in: with hugging on both, the
// SkipRotoRouter ring of TestRotoRouterImproves needs a 472λ moat instead
// of 140λ.
var strategies = [...]strategy{
	{river: true, seed: 17},
	{river: false, seed: 2*7919 + 17},
}

// routePitch is the routing grid's pitch: even a wire pinned to one edge
// of its cell (off-grid endpoints) keeps 3λ of metal spacing from a wire
// centered in the neighboring cell.
const routePitch = 14 * geom.Lambda

// routeBufs is one build's routing grid. The build reuses it for every
// combo and rip-up attempt it runs, and it grows to the largest grid the
// build meets. A routeBufs belongs to one build, so nothing guards it.
type routeBufs struct {
	router *route.Router
}

// grid returns the build's router re-gridded over region at the routing
// pitch, allocating it on first use.
func (b *routeBufs) grid(region geom.Rect) (*route.Router, error) {
	if b.router == nil {
		r, err := route.New(region, routePitch)
		if err != nil {
			return nil, err
		}
		b.router = r
		return r, nil
	}
	return b.router, b.router.Reshape(region, routePitch)
}

func buildAttemptStrategy(ctx context.Context, coreBounds geom.Rect, reqs []Request, opts *Options, moat geom.Coord, st strategy, rs *RouteStats, bufs *routeBufs) (*Ring, error) {

	// Shared nets collapse to one pad each; the extra connection points
	// are wired to the same pad net afterwards.
	var padReqs []Request
	extra := make(map[string][]Request)
	seen := make(map[string]bool)
	for _, rq := range reqs {
		if sharedClasses[rq.Class] {
			if seen[rq.Net] {
				extra[rq.Net] = append(extra[rq.Net], rq)
				continue
			}
			seen[rq.Net] = true
		}
		padReqs = append(padReqs, rq)
	}
	n := len(padReqs)

	// Sort connection points clockwise around the core center (starting
	// from twelve o'clock).
	center := coreBounds.Center()
	sort.SliceStable(padReqs, func(i, j int) bool {
		return clockwiseLess(padReqs[i].At, padReqs[j].At, center)
	})

	slots, bounds, err := makeSlots(coreBounds, moat, n, padReqs, opts.EvenSpacing)
	if err != nil {
		return nil, err
	}

	// Roto-Router: choose the rotation minimizing total Manhattan length.
	best, naive, worst := 0, geom.Coord(0), geom.Coord(0)
	var bestCost geom.Coord = -1
	for r := 0; r < n; r++ {
		var cost geom.Coord
		for i := range padReqs {
			cost += slots[(i+r)%n].stub.Manhattan(padReqs[i].At)
		}
		if r == 0 {
			naive = cost
		}
		if cost > worst {
			worst = cost
		}
		if bestCost < 0 || cost < bestCost {
			bestCost, best = cost, r
		}
	}
	if opts.SkipRotoRouter {
		best = 0
		bestCost = naive
	}

	// Place pads once (placement is independent of routing).
	var placements []placed
	padCell := mask.NewCell("padring")
	for i, rq := range padReqs {
		s := slots[(i+best)%n]
		pc, err := celllib.Pad("pad."+rq.Net, rq.Class)
		if err != nil {
			return nil, err
		}
		padCell.Place(pc.Layout, s.t)
		placements = append(placements, placed{rq, s})
	}

	// Routing order matters in a single layer: innermost arcs should claim
	// the core-hugging tracks first so outer arcs nest around them. The
	// strategies estimate nesting differently; on a failure the failed
	// wire is ripped up to the front of the order and everything reroutes
	// (classic rip-up-and-reroute).
	baseOrder, cutAngle, hasCut := routingOrder(placements, center, st.river)
	band := geom.L(16)
	// A hugging search ranks moat cells by their distance from the core
	// band, one ring per routing track across the moat.
	rings := 1
	if st.river {
		rings = int(moat/routePitch) + 1
	}
	var wires []Wire
	var lastErr error
	// Every attempt routes from the same setup (setupGrid), so the first
	// attempt that routes sets the grid up and checkpoints it, and every
	// later attempt rewinds to the checkpoint instead of redoing the setup.
	var grid *route.Router
	routeOrder := func(order []int, rs *RouteStats) ([]Wire, error) {
		if grid == nil {
			g, err := bufs.grid(bounds.Inset(-geom.L(4)))
			if err != nil {
				return nil, err
			}
			setupGrid(g, bounds, coreBounds, band, rings, placements, extra, opts, cutAngle, hasCut)
			g.Checkpoint()
			grid = g
		} else {
			grid.Reset()
		}
		return routeAll(ctx, grid, bounds, coreBounds, band, placements, order, extra, rs)
	}
	fails := make([]int, len(placements)) // rip-up count per placement
	order := baseOrder
	var rng *rand.Rand // seeded on its first shuffle: most ladders never shuffle
	// Rip-up memo. Every attempt starts from the same grid and stops at
	// its first failing unit, so its outcome — error and stats alike — is
	// a function of order[:pos+1] alone. An order that starts with a
	// recorded failing prefix replays that failure instead of re-routing
	// it.
	var memo []failedPrefix
	for attempt := 0; attempt <= 3*len(placements); attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if f := replayFailure(memo, order); f != nil {
			rs.merge(f.rs)
			lastErr = f.err
		} else {
			var ars RouteStats
			wires, lastErr = routeOrder(order, &ars)
			rs.merge(ars)
			if re, ok := lastErr.(*routeErr); ok {
				memo = append(memo, failedPrefix{order[:re.pos+1], lastErr, ars})
			}
		}
		if lastErr == nil {
			break
		}
		if fi, ok := failedIndex(lastErr, placements); ok {
			// Rip-up-and-reroute: wires that have failed float to the
			// front (most-failed first); the rest are reshuffled each
			// attempt so the search explores genuinely different orders
			// instead of cycling between two conflicting wires.
			fails[fi]++
			order = append([]int(nil), baseOrder...)
			if attempt%2 == 1 {
				if rng == nil {
					rng = rand.New(rand.NewSource(st.seed))
				}
				rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			}
			sort.SliceStable(order, func(a, b int) bool {
				return fails[order[a]] > fails[order[b]]
			})
			continue
		}
		break
	}
	if lastErr != nil {
		return nil, lastErr
	}

	ring := &Ring{
		Cell:         padCell,
		Rotation:     best,
		EstimatedLen: bestCost,
		NaiveLen:     naive,
		WorstLen:     worst,
		Bounds:       bounds,
		PadCount:     n,
		Wires:        wires,
	}
	for _, w := range wires {
		drawWire(padCell, w.Path, w.target, w.outward)
		ring.TotalWireLen += w.Len
	}
	return ring, nil
}

// routeErr tags a routing failure with the placement that failed and its
// position in the routing order.
type routeErr struct {
	idx, pos int
	err      error
}

func (e *routeErr) Error() string { return e.err.Error() }

// setupGrid blocks the static obstacles of one placement on an all-free
// router, sets the combo's search tie-break (rings around the core band;
// one ring is FIFO), and pre-claims every connection point's entry
// corridor. Nothing here depends on the routing order, so a ladder runs it
// once per combo.
func setupGrid(router *route.Router, bounds, coreBounds geom.Rect, band geom.Coord, rings int, placements []placed, extra map[string][]Request, opts *Options, cutAngle float64, hasCut bool) {
	router.Hug(coreBounds.Inset(-band), rings)
	// The core plus a reserved band around it is an obstacle: routed wires
	// stay out of the band, and each connection point is reached by a
	// straight perpendicular leg crossing it, so wires cannot seal off a
	// connection point.
	if len(opts.Obstacles) > 0 {
		for _, ob := range opts.Obstacles {
			router.Block(ob.Inset(-band), "core!")
		}
	} else {
		router.Block(coreBounds.Inset(-band), "core!")
	}
	// Wires may not ride the strip just inside the pad ring (off-grid pad
	// stubs would end up sub-spacing from them); each stub's own cell is
	// then reopened for its net.
	strip := geom.L(14)
	inner := bounds.Inset(geom.L(celllib.PadHeight))
	router.Block(geom.R(inner.MinX, inner.MaxY-strip, inner.MaxX, inner.MaxY), "ring!")
	router.Block(geom.R(inner.MinX, inner.MinY, inner.MaxX, inner.MinY+strip), "ring!")
	router.Block(geom.R(inner.MinX, inner.MinY, inner.MinX+strip, inner.MaxY), "ring!")
	router.Block(geom.R(inner.MaxX-strip, inner.MinY, inner.MaxX, inner.MaxY), "ring!")
	for _, p := range placements {
		// A pad blocks every net except its own (its wire starts at the
		// stub on the pad boundary), and a narrow corridor through the
		// ring strip is reopened for that net, pointing into the moat.
		router.Block(p.s.t.ApplyRect(geom.R(0, 0, geom.L(celllib.PadWidth), geom.L(celllib.PadHeight))), p.req.Net)
		depth := strip + geom.L(16)
		var corridor geom.Rect
		switch p.s.side {
		case 0: // north pads: corridor extends south into the moat
			corridor = geom.R(p.s.stub.X-geom.L(6), p.s.stub.Y-depth, p.s.stub.X+geom.L(6), p.s.stub.Y)
		case 1: // east pads: corridor extends west
			corridor = geom.R(p.s.stub.X-depth, p.s.stub.Y-geom.L(6), p.s.stub.X, p.s.stub.Y+geom.L(6))
		case 2: // south pads: corridor extends north
			corridor = geom.R(p.s.stub.X-geom.L(6), p.s.stub.Y, p.s.stub.X+geom.L(6), p.s.stub.Y+depth)
		default: // west pads: corridor extends east
			corridor = geom.R(p.s.stub.X, p.s.stub.Y-geom.L(6), p.s.stub.X+depth, p.s.stub.Y+geom.L(6))
		}
		router.Block(corridor, p.req.Net)
	}
	// Cut barrier: the wire arcs leave at least one angle uncovered; a
	// radial barrier there turns the ring into a channel, where routing
	// in cut order with contour hugging is the classic river-routing
	// construction (order-preserving assignments always succeed).
	if hasCut {
		center := coreBounds.Center()
		dirX, dirY := math.Sin(cutAngle), math.Cos(cutAngle) // clockwise angle from north
		maxR := float64(bounds.W() + bounds.H())
		for r := 0.0; r < maxR; r += float64(geom.L(6)) {
			p := geom.Pt(center.X+geom.Coord(dirX*r), center.Y+geom.Coord(dirY*r))
			if !bounds.Inset(-geom.L(4)).Contains(p) {
				break
			}
			if coreBounds.Contains(p) {
				continue
			}
			router.Block(geom.R(p.X-geom.L(3), p.Y-geom.L(3), p.X+geom.L(3), p.Y+geom.L(3)), "cut!")
		}
	}

	// Pre-claim every connection point's entry corridor (through the band
	// plus one routing cell) so no trunk can hug the band across another
	// net's approach.
	for _, p := range placements {
		for _, tgt := range append([]Request{p.req}, extra[p.req.Net]...) {
			dir := outwardFor(tgt, coreBounds)
			depth := band + geom.L(30)
			cor := geom.R(tgt.At.X, tgt.At.Y,
				tgt.At.X+dir.X*depth, tgt.At.Y+dir.Y*depth).Inset(-geom.L(4))
			router.Claim(cor, p.req.Net)
		}
	}
}

// routeAll routes every unit (one placement and all its branch targets)
// in order on router, which holds the placement's setup (setupGrid) and
// nothing else: each unit routes against the grid and the segments its
// predecessors left behind. The context is checked before each unit, so a
// cancelled compile stops mid-attempt. A failing unit ends the attempt
// with a routeErr naming it.
func routeAll(ctx context.Context, router *route.Router, bounds, coreBounds geom.Rect, band geom.Coord, placements []placed, order []int, extra map[string][]Request, rs *RouteStats) ([]Wire, error) {
	maxD := max(bounds.W(), bounds.H())
	u := &unitCtx{router: router}
	var wires []Wire
	for k, i := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		uw, err := routeUnit(u, placements[i], extra, coreBounds, band, maxD)
		if err != nil {
			rs.add(router.Stats())
			return nil, &routeErr{idx: i, pos: k, err: err}
		}
		wires = append(wires, uw...)
		rs.Nets++
	}
	rs.add(router.Stats())
	return wires, nil
}

// unitCtx is the live state of one routing attempt: the grid and the
// segments drawn so far, which each unit checks its geometry against and
// appends its own to.
type unitCtx struct {
	router *route.Router
	segs   []netSeg
}

// foreignSegClash reports whether r overlaps another net's drawn segment.
// Overlap is tested first: it is the rare outcome, and it spares most
// segments the net-name comparison.
func (u *unitCtx) foreignSegClash(net string, r geom.Rect) bool {
	for _, s := range u.segs {
		if s.r.Overlaps(r) && s.net != net {
			return true
		}
	}
	return false
}

// routeUnit routes one placement's net — the trunk from its pad stub plus
// a branch per extra target — appending drawn segments to u.segs.
func routeUnit(u *unitCtx, p placed, extra map[string][]Request, coreBounds geom.Rect, band, maxD geom.Coord) ([]Wire, error) {
	var wires []Wire
	branches := extra[p.req.Net]
	for bi := 0; bi <= len(branches); bi++ {
		tgt, from := p.req, p.s.stub
		if bi > 0 {
			tgt = branches[bi-1]
			// Branch a multi-terminal net from the nearest point of
			// its existing trunk, so branches share geometry instead
			// of running sub-spacing parallels.
			if np, ok := u.router.NearestOwned(p.req.Net, tgt.At); ok {
				from = np
			}
		}
		pts, err := routeToTarget(u, p.req.Net, from, tgt, coreBounds, band, maxD)
		if err != nil && from != p.s.stub {
			// The nearest trunk point may be walled in; retry from
			// the pad stub itself.
			pts, err = routeToTarget(u, p.req.Net, p.s.stub, tgt, coreBounds, band, maxD)
		}
		if err != nil {
			return nil, err
		}
		for s := 0; s+1 < len(pts); s++ {
			u.segs = append(u.segs, netSeg{net: p.req.Net,
				r: geom.R(pts[s].X, pts[s].Y, pts[s+1].X, pts[s+1].Y).Inset(-geom.L(2))})
		}
		// Claim the wire's true geometry (slightly inflated) so the search
		// steers later wires away; exact spacing is enforced by the
		// geometric gates above, so the claims stay tight to keep
		// narrow regions (e.g. the core/decoder notch) routable.
		for s := 0; s+1 < len(pts); s++ {
			seg := geom.R(pts[s].X, pts[s].Y, pts[s+1].X, pts[s+1].Y).Inset(-geom.L(3))
			u.router.Claim(seg, p.req.Net)
		}
		wires = append(wires, Wire{Net: p.req.Net, Path: pts, Len: route.PathLength(pts), target: tgt,
			outward: outwardFor(tgt, coreBounds)})
	}
	return wires, nil
}

// failedPrefix is one memoized rip-up failure: every serial attempt whose
// order starts with prefix fails at its last unit with err, doing rs's work.
// prefix aliases that attempt's order, which the rip-up step never mutates
// (it builds a fresh slice for the next attempt).
type failedPrefix struct {
	prefix []int
	err    error
	rs     RouteStats
}

// replayFailure returns the memo entry whose prefix starts order, or nil.
func replayFailure(memo []failedPrefix, order []int) *failedPrefix {
	for f := range memo {
		if p := memo[f].prefix; len(p) <= len(order) && slices.Equal(p, order[:len(p)]) {
			return &memo[f]
		}
	}
	return nil
}

func failedIndex(err error, placements []placed) (int, bool) {
	re, ok := err.(*routeErr)
	if !ok || re.idx < 0 || re.idx >= len(placements) {
		return 0, false
	}
	return re.idx, true
}

// netSeg is one drawn wire segment (inflated) with its net, for geometric
// leg checking.
type netSeg struct {
	net string
	r   geom.Rect
}

// routeToTarget routes from the pad stub to an approach point just outside
// the reserved band, then draws a straight perpendicular leg through the
// band to the connection point. The leg is validated against the actual
// geometry of every previously drawn wire, so it never crosses or crowds
// another net.
func routeToTarget(u *unitCtx, net string, from geom.Point, tgt Request, core geom.Rect, band, maxD geom.Coord) ([]geom.Point, error) {
	router := u.router
	to := tgt.At
	dir := tgt.Outward
	if dir == (geom.Point{}) {
		dir = outwardDir(to, core)
	}
	if maxD < geom.L(60) {
		maxD = geom.L(60)
	}
	for d := band + geom.L(6); d <= band+maxD; d += geom.L(6) {
		ap := geom.Pt(to.X+dir.X*d, to.Y+dir.Y*d)
		if o := router.Owner(ap); o != "" && o != net {
			continue
		}
		// The leg's true geometry must keep metal spacing from every
		// other net's drawn wire (2λ half-width + 3λ spacing).
		leg := geom.R(to.X, to.Y, ap.X, ap.Y).Inset(-geom.L(5))
		if u.foreignSegClash(net, leg) {
			continue
		}
		pts, err := router.Route(net, from, ap)
		if err != nil {
			continue
		}
		// Hard geometric gate: the drawn path must keep metal spacing
		// from every other net's existing geometry (cell claims are too
		// coarse for off-grid stubs and legs).
		clash := false
		for si := 0; si+1 < len(pts) && !clash; si++ {
			r := geom.R(pts[si].X, pts[si].Y, pts[si+1].X, pts[si+1].Y).Inset(-geom.L(5))
			clash = u.foreignSegClash(net, r)
		}
		if clash {
			continue
		}
		// Claim the leg corridor so later wires keep clear of it.
		router.Claim(geom.R(to.X, to.Y, ap.X, ap.Y).Inset(-geom.L(3)), net)
		return noShortJogs(append(pts, to), net, u), nil
	}
	return nil, fmt.Errorf("pads: no free approach to %s at %v", net, to)
}

// arc is an angular interval on the ring (clockwise from start to end).
type arc struct{ start, end float64 }

func (a arc) covers(ang float64) bool {
	// Clockwise from start to end, possibly wrapping.
	if a.start <= a.end {
		return ang >= a.start && ang <= a.end
	}
	return ang >= a.start || ang <= a.end
}

// routingOrder picks the base routing order. In river order it sorts by
// target angle from a cut angle no arc covers, so the ring becomes a
// channel routed in river order; otherwise, and when every angle is
// covered, it sorts by Manhattan stub-to-target distance.
func routingOrder(placements []placed, center geom.Point, river bool) ([]int, float64, bool) {
	n := len(placements)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if river {
		arcs := make([]arc, n)
		var ends []float64
		for i, p := range placements {
			a := clockAngle(p.s.stub, center)
			b := clockAngle(p.req.At, center)
			cw := b - a
			if cw < 0 {
				cw += 2 * math.Pi
			}
			if cw <= math.Pi {
				arcs[i] = arc{a, b}
			} else {
				arcs[i] = arc{b, a}
			}
			ends = append(ends, a, b)
		}
		sort.Float64s(ends)
		cut := -1.0
		for i := 0; i < len(ends); i++ {
			mid := ends[i] + 1e-4
			if i+1 < len(ends) {
				mid = (ends[i] + ends[i+1]) / 2
			}
			covered := false
			for _, a := range arcs {
				if a.covers(mid) {
					covered = true
					break
				}
			}
			if !covered {
				cut = mid
				break
			}
		}
		if cut >= 0 {
			key := func(i int) float64 {
				ang := clockAngle(placements[i].req.At, center) - cut
				if ang < 0 {
					ang += 2 * math.Pi
				}
				return ang
			}
			sort.SliceStable(order, func(a, b int) bool { return key(order[a]) < key(order[b]) })
			return order, cut, true
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := placements[order[a]], placements[order[b]]
		return pa.s.stub.Manhattan(pa.req.At) < pb.s.stub.Manhattan(pb.req.At)
	})
	return order, 0, false
}

// noShortJogs removes interior segments shorter than the metal spacing
// envelope (12λ) by sliding an adjacent straight run sideways onto the
// jog's far coordinate. Such jogs come from off-grid endpoints and would
// leave reentrant slots narrower than the spacing rule between their
// nearly-parallel arms. Endpoints never move; slides stay within half a
// routing cell, so the path remains inside its claimed cells.
func noShortJogs(pts []geom.Point, net string, u *unitCtx) []geom.Point {
	safe := func(p, q geom.Point) bool {
		r := geom.R(p.X, p.Y, q.X, q.Y).Inset(-geom.L(5))
		return !u.foreignSegClash(net, r)
	}
	pts = canonPath(pts)
	for iter := 0; iter < 24; iter++ {
		found := false
		// After canonPath every segment is a maximal straight run.
		for i := 1; i+2 < len(pts); i++ {
			a, b := pts[i], pts[i+1]
			if a.Manhattan(b) > geom.L(12) {
				continue
			}
			horizJog := a.Y == b.Y
			slid := func(p geom.Point, to geom.Point) geom.Point {
				if horizJog {
					p.X = to.X
				} else {
					p.Y = to.Y
				}
				return p
			}
			switch {
			case i-1 > 0 && safe(slid(pts[i-1], b), slid(pts[i], b)):
				pts[i-1], pts[i] = slid(pts[i-1], b), slid(pts[i], b)
			case i+2 < len(pts)-1 && safe(slid(pts[i+1], a), slid(pts[i+2], a)):
				pts[i+1], pts[i+2] = slid(pts[i+1], a), slid(pts[i+2], a)
			default:
				continue // pinned by endpoints or unsafe: keep the jog
			}
			found = true
			break
		}
		if !found {
			break
		}
		pts = canonPath(pts)
	}
	return pts
}

// canonPath removes duplicate points and merges collinear neighbors, in
// place: it returns a prefix of pts.
func canonPath(pts []geom.Point) []geom.Point {
	if len(pts) == 0 {
		return pts
	}
	// Both passes write at or behind the point they read.
	out := pts[:1]
	for _, p := range pts[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	pts = out
	out = pts[:1]
	for i := 1; i < len(pts); i++ {
		if i+1 < len(pts) && collinear(out[len(out)-1], pts[i], pts[i+1]) {
			continue
		}
		out = append(out, pts[i])
	}
	return out
}

func collinear(a, b, c geom.Point) bool {
	return (a.X == b.X && b.X == c.X) || (a.Y == b.Y && b.Y == c.Y)
}

// outwardDir returns the unit direction pointing away from the core for a
// point on or near its boundary (the nearest side wins).
func outwardDir(p geom.Point, core geom.Rect) geom.Point {
	dW := p.X - core.MinX
	dE := core.MaxX - p.X
	dS := p.Y - core.MinY
	dN := core.MaxY - p.Y
	min := dW
	dir := geom.Pt(-1, 0)
	if dE < min {
		min, dir = dE, geom.Pt(1, 0)
	}
	if dS < min {
		min, dir = dS, geom.Pt(0, -1)
	}
	if dN < min {
		dir = geom.Pt(0, 1)
	}
	return dir
}

// drawWire emits the wire geometry (metal). A poly connection point gets a
// layer-conversion pad a few lambda outside the chip edge along the
// approach leg (clear of the chip's own edge metal): a poly stub from the
// connection point to the pad, a contact, and the metal wire ending there.
func drawWire(c *mask.Cell, pts []geom.Point, tgt Request, outward geom.Point) {
	if tgt.Layer == layer.Poly && len(pts) >= 2 {
		p := tgt.At
		cp := geom.Pt(p.X+outward.X*geom.L(6), p.Y+outward.Y*geom.L(6)) // contact center
		// Poly stub from the connection point through the contact pad.
		c.AddWire(layer.Poly, geom.L(4), p, geom.Pt(p.X+outward.X*geom.L(8), p.Y+outward.Y*geom.L(8)))
		c.AddBox(layer.Metal, geom.R(cp.X-geom.L(2), cp.Y-geom.L(2), cp.X+geom.L(2), cp.Y+geom.L(2)))
		c.AddBox(layer.Contact, geom.R(cp.X-geom.L(1), cp.Y-geom.L(1), cp.X+geom.L(1), cp.Y+geom.L(1)))
		// The metal wire stops at the contact instead of the poly point.
		pts = append(pts[:len(pts)-1:len(pts)-1], cp)
	}
	if len(pts) >= 2 {
		c.AddWire(layer.Metal, geom.L(4), pts...)
	}
	c.AddLabel(tgt.Net, tgt.At, layer.Metal)
}

// outwardFor computes the outward direction for a request (hint or
// inferred).
func outwardFor(tgt Request, core geom.Rect) geom.Point {
	if tgt.Outward != (geom.Point{}) {
		return tgt.Outward
	}
	return outwardDir(tgt.At, core)
}

// clockwiseLess orders points clockwise starting at twelve o'clock.
func clockwiseLess(a, b, center geom.Point) bool {
	return clockAngle(a, center) < clockAngle(b, center)
}

func clockAngle(p, center geom.Point) float64 {
	dx := float64(p.X - center.X)
	dy := float64(p.Y - center.Y)
	// atan2 measured clockwise from north.
	ang := math.Atan2(dx, dy)
	if ang < 0 {
		ang += 2 * math.Pi
	}
	return ang
}

// makeSlots computes n pad slots clockwise around the ring. Slots start
// from the even division of the perimeter and are then pulled toward the
// sorted connection points' own positions, keeping the bonding pitch (the
// paper's even-spacing requirement is a bondability constraint; pulling
// within that constraint shortens every wire). Neither branch snaps a slot
// to the routing grid — even spacing divides the perimeter exactly, so its
// slots need not even sit on the λ grid — and a pad stub may fall anywhere
// in its routing cell; the routing pitch allows for that (routePitch).
func makeSlots(core geom.Rect, moat geom.Coord, n int, reqs []Request, even bool) ([]slot, geom.Rect, error) {
	inner := core.Inset(-moat)
	outer := inner.Inset(-geom.L(celllib.PadHeight))

	perim := 2*int64(inner.W()) + 2*int64(inner.H())
	minPitch := int64(geom.L(celllib.PadWidth + 8))
	if int64(n)*minPitch > perim {
		return nil, geom.Rect{}, fmt.Errorf("pads: %d pads do not fit on a %d-quanta perimeter; chip too small", n, perim)
	}
	step := perim / int64(n)

	// Desired positions: each sorted connection point projected onto the
	// ring perimeter.
	want := make([]int64, n)
	for i, rq := range reqs {
		want[i] = perimPos(inner, rq.At)
	}

	if even {
		// Paper option: exact even division, anchored so slot 0 sits as
		// close as possible to request 0 (the Roto-Router rotation then
		// chooses the assignment).
		slots := make([]slot, n)
		for i := 0; i < n; i++ {
			slots[i] = walkPerimeter(inner, (want[0]+int64(i)*step)%perim)
		}
		return slots, outer, nil
	}
	// Enforce the bonding pitch while preserving cyclic order: cut the
	// circle at the largest gap between desired positions, then relax with
	// a forward pass (push clockwise) and a backward pass (pull back),
	// which cannot overlap because total slack is non-negative.
	pos := append([]int64(nil), want...)
	sort.Slice(pos, func(a, b int) bool { return pos[a] < pos[b] })
	cutAt := 0
	bestGap := int64(-1)
	for i := 0; i < n; i++ {
		gap := pos[(i+1)%n] - pos[i]
		if i == n-1 {
			gap += perim
		}
		if gap > bestGap {
			bestGap, cutAt = gap, (i+1)%n
		}
	}
	lin := make([]int64, n) // positions unrolled from the cut
	for i := 0; i < n; i++ {
		v := pos[(cutAt+i)%n] - pos[cutAt]
		if v < 0 {
			v += perim
		}
		lin[i] = v
	}
	for i := 1; i < n; i++ { // forward: push clockwise
		if lin[i] < lin[i-1]+minPitch {
			lin[i] = lin[i-1] + minPitch
		}
	}
	if over := lin[n-1] - (perim - minPitch); over > 0 { // pull the tail back
		lin[n-1] = perim - minPitch
		for i := n - 2; i >= 0; i-- {
			if lin[i] > lin[i+1]-minPitch {
				lin[i] = lin[i+1] - minPitch
			}
		}
	}
	for i := 0; i < n; i++ {
		v := (lin[i] + pos[cutAt]) % perim
		if v < 0 {
			v += perim
		}
		pos[(cutAt+i)%n] = v
	}
	// Keep every pad stub at least 8λ from every OTHER connection point's
	// coordinate (a stub within the metal envelope of a foreign approach
	// leg would neck against it). Stubs may coincide with their own
	// target's coordinate (want position) — that is the ideal case.
	clear8 := int64(geom.L(8))
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			for j, w := range want {
				if j == i {
					continue
				}
				d := pos[i] - w
				if d > -clear8 && d < clear8 && d != 0 {
					if d >= 0 {
						pos[i] = w + clear8
					} else {
						pos[i] = w - clear8
					}
					if pos[i] < 0 {
						pos[i] += perim
					}
					pos[i] %= perim
				}
			}
		}
	}

	var slots []slot
	for i := 0; i < n; i++ {
		d := pos[i] % perim
		if d < 0 {
			d += perim
		}
		s := walkPerimeter(inner, d)
		slots = append(slots, s)
	}
	return slots, outer, nil
}

// perimPos maps a point to its clockwise perimeter coordinate on the
// inner ring (projecting onto the nearest side).
func perimPos(inner geom.Rect, p geom.Point) int64 {
	w, h := int64(inner.W()), int64(inner.H())
	clampX := min(max(int64(p.X-inner.MinX), 0), w)
	clampY := min(max(int64(p.Y-inner.MinY), 0), h)
	dW := int64(p.X - inner.MinX)
	dE := int64(inner.MaxX - p.X)
	dS := int64(p.Y - inner.MinY)
	dN := int64(inner.MaxY - p.Y)
	m := dN
	side := 0
	if dE < m {
		m, side = dE, 1
	}
	if dS < m {
		m, side = dS, 2
	}
	if dW < m {
		side = 3
	}
	switch side {
	case 0: // north: left to right
		return clampX
	case 1: // east: top to bottom
		return w + (h - clampY)
	case 2: // south: right to left
		return w + h + (w - clampX)
	default: // west: bottom to top
		return 2*w + h + clampY
	}
}

// walkPerimeter finds the slot at clockwise distance d from the top-left
// corner of the inner ring rectangle.
func walkPerimeter(inner geom.Rect, d int64) slot {
	w, h := int64(inner.W()), int64(inner.H())
	wireX := geom.L(celllib.PadWireX)
	switch {
	case d < w: // north side, left to right
		x := inner.MinX + geom.Coord(d)
		// Pad faces south: stub at its south edge; placed above the line.
		t := geom.Translate(x-wireX, inner.MaxY)
		return slot{side: 0, center: geom.Pt(x, inner.MaxY+geom.L(28)), stub: geom.Pt(x, inner.MaxY), t: t}
	case d < w+h: // east side, top to bottom
		y := inner.MaxY - geom.Coord(d-w)
		// R270 turns the south-facing stub to face west, body to the east.
		t := geom.At(geom.R270, inner.MaxX, y+wireX)
		return slot{side: 1, center: geom.Pt(inner.MaxX+geom.L(28), y), stub: geom.Pt(inner.MaxX, y), t: t}
	case d < 2*w+h: // south side, right to left
		x := inner.MaxX - geom.Coord(d-w-h)
		t := geom.At(geom.R180, x+wireX, inner.MinY)
		return slot{side: 2, center: geom.Pt(x, inner.MinY-geom.L(28)), stub: geom.Pt(x, inner.MinY), t: t}
	default: // west side, bottom to top
		y := inner.MinY + geom.Coord(d-2*w-h)
		// R90 turns the south-facing stub to face east, body to the west.
		t := geom.At(geom.R90, inner.MinX, y-wireX)
		return slot{side: 3, center: geom.Pt(inner.MinX-geom.L(28), y), stub: geom.Pt(inner.MinX, y), t: t}
	}
}
