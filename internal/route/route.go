// Package route provides the wire routers used by Pass 3: a grid-based
// maze router that finds Manhattan paths around obstacles, used to "add
// wires between the pads and the connection points".
//
// The search is A*-directed (Manhattan-distance heuristic over a bucketed
// two-FIFO frontier, see astar.go). Net names are interned to small
// integer ids so the owner grid is a []netID and ownership tests never
// compare strings.
//
// Pass 3 routes its units one after another on one Router per rip-up
// ladder worker: Checkpoint and Reset rewind the grid to the blocked setup
// between attempts, and Reshape re-grids it for the next moat width, so a
// worker keeps one set of grid and search buffers for its whole ladder.
package route

import (
	"fmt"
	"math"

	"bristleblocks/internal/geom"
)

// netID is an interned net name; 0 is the free cell.
type netID int32

const freeCell netID = 0

// SearchStats counts the work the router's searches did. CellsExpanded is
// the number of cells closed (popped and expanded) across all searches;
// FrontierPeak is the largest frontier any single search reached.
type SearchStats struct {
	Searches      int64
	Failures      int64
	CellsExpanded int64
	FrontierPeak  int64
}

// Router is a maze router over a uniform grid. Each grid cell is either
// free, or owned by a net; a route for net N may pass through free cells
// and cells already owned by N (so multi-terminal nets merge naturally),
// and blocks the cells it uses. A Router is not safe for concurrent use:
// each goroutine routes on a Router of its own.
type Router struct {
	region geom.Rect
	pitch  geom.Coord
	nx, ny int
	owner  []netID

	names []string         // names[id] = net name; names[0] = ""
	ids   map[string]netID // inverse of names

	base []netID // ownership at the last Checkpoint; empty when none

	hug hugRings // the search's tie-break within one f-level

	sc *scratch // search buffers, allocated on first Route

	stats SearchStats
}

// New creates a router over the region with the given grid pitch. The
// pitch should be at least wire width + spacing (8λ for 4λ metal at 3λ
// spacing, rounded up for margin).
func New(region geom.Rect, pitch geom.Coord) (*Router, error) {
	r := &Router{
		names: []string{""},
		ids:   map[string]netID{"": freeCell},
	}
	if err := r.Reshape(region, pitch); err != nil {
		return nil, err
	}
	return r, nil
}

// Reshape re-grids the router over region at pitch: an all-free grid, as
// New would build, that keeps the router's allocations — owner array,
// search scratch, interned net names — and grows them when the new grid
// is larger. A Pass 3 ladder worker routes combos of several moat widths
// on one router this way. It drops the checkpoint and restores the FIFO
// tie-break.
func (r *Router) Reshape(region geom.Rect, pitch geom.Coord) error {
	if pitch <= 0 {
		return fmt.Errorf("route: non-positive pitch %d", pitch)
	}
	if region.Empty() {
		return fmt.Errorf("route: empty region")
	}
	nx := int((region.W() + pitch - 1) / pitch)
	ny := int((region.H() + pitch - 1) / pitch)
	if nx > math.MaxInt32 || ny > math.MaxInt32 || nx*ny > math.MaxInt32 {
		// The search indexes cells and carries coordinates as int32.
		return fmt.Errorf("route: %dx%d grid exceeds %d cells", nx, ny, math.MaxInt32)
	}
	r.region, r.pitch, r.nx, r.ny = region, pitch, nx, ny
	r.hug = hugRings{rings: 1}
	n := nx * ny
	r.owner = resize(r.owner, n)
	r.base = r.base[:0]
	r.Reset()
	return nil
}

// resize returns s at length n with every element zero, reusing its
// backing array when it is large enough and at least doubling it when it
// is not, so a ladder widening its moat row by row regrows it only a few
// times.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	s = s[:n]
	clear(s)
	return s
}

// hugRings is the search's tie-break within one f-level: the hug
// rectangle in cells and the number of rings (at least one; one ring is
// plain FIFO order).
type hugRings struct {
	x0, y0, x1, y1 int32
	rings          int32
}

// ring returns the cell's ring: its Chebyshev distance in cells from the
// hug rectangle, clamped to the last ring.
func (h hugRings) ring(x, y int32) int32 {
	if h.rings == 1 {
		return 0
	}
	return min(max(h.x0-x, x-h.x1, h.y0-y, y-h.y1, 0), h.rings-1)
}

// Hug sets the search's tie-break. Among the cells of one f-level — the
// ends of equally short partial paths — the search pops first the cell
// nearest core, by rings of one cell, so a route around core follows the
// innermost free track instead of an arbitrary shortest path. Cells
// rings-1 or more cells out share the last ring. rings <= 1 restores the
// default: plain FIFO order. Either way every path is Lee-optimal; only
// which of several shortest paths comes back differs. The setting
// survives Reset and Checkpoint; Reshape drops it.
func (r *Router) Hug(core geom.Rect, rings int) {
	rings = min(rings, max(r.nx, r.ny)+1) // no cell is farther out
	if rings <= 1 {
		r.hug = hugRings{rings: 1}
		return
	}
	x0, y0 := r.cellOf(geom.Pt(core.MinX, core.MinY))
	x1, y1 := r.cellOf(geom.Pt(core.MaxX-1, core.MaxY-1))
	r.hug = hugRings{int32(x0), int32(y0), int32(x1), int32(y1), int32(rings)}
}

// Checkpoint records the grid's current ownership as the state Reset
// returns to. A rip-up ladder routes every attempt of one placement from
// the same blocked setup, so it sets the grid up once, checkpoints it, and
// rewinds to it instead of re-running the setup.
func (r *Router) Checkpoint() {
	r.base = append(r.base[:0], r.owner...)
}

// Reset returns the router to its last Checkpoint — an all-free grid when
// it has none — with zeroed statistics, keeping its allocations for the
// next attempt. A rip-up ladder re-routes the same placement dozens of
// times; rebuilding the router each attempt made the allocator, not the
// search, the bottleneck.
func (r *Router) Reset() {
	if len(r.base) == len(r.owner) {
		copy(r.owner, r.base)
	} else {
		clear(r.owner)
	}
	r.stats = SearchStats{}
	if r.sc != nil {
		r.sc.floodOK = false
	}
}

// GridSize returns the router's grid dimensions.
func (r *Router) GridSize() (nx, ny int) { return r.nx, r.ny }

// Stats returns the accumulated search statistics.
func (r *Router) Stats() SearchStats { return r.stats }

// intern maps a net name to its id, allocating one on first sight.
func (r *Router) intern(net string) netID {
	if id, ok := r.ids[net]; ok {
		return id
	}
	id := netID(len(r.names))
	r.names = append(r.names, net)
	r.ids[net] = id
	return id
}

// setOwner is the single owner-write path: it invalidates the
// failed-flood cache, whose reachability answer assumed a frozen grid.
func (r *Router) setOwner(i int, id netID) {
	r.owner[i] = id
	if r.sc != nil {
		r.sc.floodOK = false
	}
}

func (r *Router) idx(cx, cy int) int { return cy*r.nx + cx }

func (r *Router) inBounds(cx, cy int) bool {
	return cx >= 0 && cx < r.nx && cy >= 0 && cy < r.ny
}

// cellOf maps a point to its grid cell (clamped to bounds).
func (r *Router) cellOf(p geom.Point) (int, int) {
	cx := int((p.X - r.region.MinX) / r.pitch)
	cy := int((p.Y - r.region.MinY) / r.pitch)
	if cx < 0 {
		cx = 0
	}
	if cx >= r.nx {
		cx = r.nx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= r.ny {
		cy = r.ny - 1
	}
	return cx, cy
}

// center returns the center point of a grid cell.
func (r *Router) center(cx, cy int) geom.Point {
	return geom.Pt(
		r.region.MinX+geom.Coord(cx)*r.pitch+r.pitch/2,
		r.region.MinY+geom.Coord(cy)*r.pitch+r.pitch/2,
	)
}

// Block marks every grid cell overlapping rect as owned by net (use a
// unique name like "obstacle" for hard obstacles). Blocking with the
// empty net is a no-op: "" is the free cell, and silently un-owning cells
// would let later routes cut through claimed territory.
func (r *Router) Block(rect geom.Rect, net string) {
	if net == "" {
		return
	}
	lo := rect.Intersect(r.region)
	if lo.Empty() && !r.region.Overlaps(rect) {
		return
	}
	id := r.intern(net)
	cx0, cy0 := r.cellOf(geom.Pt(rect.MinX, rect.MinY))
	cx1, cy1 := r.cellOf(geom.Pt(rect.MaxX-1, rect.MaxY-1))
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			r.setOwner(r.idx(cx, cy), id)
		}
	}
}

// Owner reports the net occupying the cell containing p ("" = free).
func (r *Router) Owner(p geom.Point) string {
	cx, cy := r.cellOf(p)
	i := r.idx(cx, cy)
	return r.names[r.owner[i]]
}

// Claim marks every FREE grid cell overlapping rect as owned by net;
// cells already owned (by any net) are left alone. Routers call this with
// each drawn wire segment inflated by the spacing rule, so that actual
// geometry — including off-grid endpoints poking past cell boundaries —
// keeps other nets at legal distance. Claiming for the empty net is a
// no-op.
func (r *Router) Claim(rect geom.Rect, net string) {
	if net == "" {
		return
	}
	id := r.intern(net)
	cx0, cy0 := r.cellOf(geom.Pt(rect.MinX, rect.MinY))
	cx1, cy1 := r.cellOf(geom.Pt(rect.MaxX-1, rect.MaxY-1))
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			i := r.idx(cx, cy)
			if r.owner[i] == freeCell {
				r.setOwner(i, id)
			}
		}
	}
}

// NearestOwned returns the center of the claimed cell of the given net
// nearest to p (for branching a multi-terminal net from its existing
// trunk); ok is false when the net owns nothing.
func (r *Router) NearestOwned(net string, p geom.Point) (geom.Point, bool) {
	id, ok := r.ids[net]
	if !ok || id == freeCell {
		return geom.Point{}, false
	}
	best := geom.Point{}
	bestD := geom.Coord(-1)
	for cy := 0; cy < r.ny; cy++ {
		for cx := 0; cx < r.nx; cx++ {
			if r.owner[r.idx(cx, cy)] != id {
				continue
			}
			c := r.center(cx, cy)
			d := c.Manhattan(p)
			if bestD < 0 || d < bestD {
				best, bestD = c, d
			}
		}
	}
	return best, bestD >= 0
}

// PathLength returns the Manhattan length of a point path.
func PathLength(pts []geom.Point) geom.Coord {
	var sum geom.Coord
	for i := 0; i+1 < len(pts); i++ {
		sum += pts[i].Manhattan(pts[i+1])
	}
	return sum
}
