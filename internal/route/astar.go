// A*-directed maze search over the router grid.
//
// On a unit-cost Manhattan grid the f-value of a neighbor differs from its
// parent's by exactly 0 or +2 (g grows by 1, the Manhattan heuristic
// changes by exactly ±1, and f parity is fixed by the start/goal cells).
// The open list therefore needs no heap: two FIFO buckets suffice — `cur`
// holds the current f-level, `next` holds f+2, and when cur drains the
// buckets swap.
//
// Ties within a bucket pop in push (FIFO) order and neighbors are visited
// in a fixed order, so the search — and every path it returns — is fully
// deterministic.
//
// A cell discovered a second time on a cheaper path is re-pushed with the
// improved g (mark-on-discovery A* is NOT optimal); the stale queue entry
// is skipped at pop via the closed bit. With the consistent Manhattan
// heuristic this guarantees returned paths have Lee-optimal length, which
// the property tests assert against a reference Lee oracle.
//
// The kernel runs at memory speed. Each cell's search state — the epoch
// that discovered it, a closed bit, the step that reached it, and its g —
// is one 8-byte record (cell), so relaxing a neighbour reads and writes a
// single record instead of four parallel arrays. Frontier entries carry
// their cell's coordinates, so an expansion never divides the index back
// into (x, y); the four neighbours are visited unrolled, and the f-level
// of each is decided by one comparison against the target on its axis.
// The walk-back recovers each predecessor from the recorded step.
//
// All per-search state lives in a scratch struct reused across calls:
// records are invalidated by bumping the epoch instead of clearing, so a
// search allocates nothing in steady state (BenchmarkSearch pins 0
// allocs/op). A scratch grows to the largest grid its router is given and
// may be shared by two routers that never search at once (ShareScratch).

package route

import (
	"fmt"
	"slices"

	"bristleblocks/internal/geom"
)

// cell is one grid cell's search state, packed into 8 bytes so an
// expansion's neighbour reads touch one record each and a cache line
// holds eight cells. mark combines three things:
//
//	bits 3..31  the epoch in which the search discovered the cell
//	bit  2      set once the search has expanded (closed) the cell
//	bits 0..1   the step that reached it (stepPosX..stepNegY), from which
//	            the walk-back recovers the predecessor
//
// A mark from an older epoch is garbage from an earlier search.
type cell struct {
	mark uint32
	g    int32 // best known path length from the start
}

const (
	closedBit  = 4
	epochShift = 3
	maxEpoch   = 1<<(32-epochShift) - 1

	stepPosX = 0 // reached from the cell at x-1
	stepNegX = 1 // from x+1
	stepPosY = 2 // from y-1
	stepNegY = 3 // from y+1
)

// node is a frontier entry or a path cell: the cell index with its
// coordinates, carried along so nothing divides them back out of the
// index.
type node struct {
	i, x, y int32
}

// scratch is the reusable search state. It belongs to one Router, or to
// two that never search at once (ShareScratch), and grows to the largest
// grid it is used on (see Reshape); a reused scratch needs no clearing
// because stale marks never carry a later epoch.
type scratch struct {
	cells []cell
	epoch uint32
	cur   []node       // FIFO bucket for the current f-level
	next  []node       // FIFO bucket for f-level + 2
	path  []node       // walk-back buffer, goal first
	pts   []geom.Point // Route's point path, before simplify
	simp  []geom.Point // and after

	// Failed-flood cache. A search that finds no path has flooded every
	// cell reachable from its start; until the next search or owner write
	// invalidates the flood, "can net id reach cell c from start s?" is
	// answered by the marks instead of another full flood. Pass 3's
	// approach-point scan probes dozens of targets from one start, so a
	// walled-in start pays for one flood instead of dozens. floodBy is the
	// router that flooded: a shared scratch (ShareScratch) never answers
	// one router from another's grid.
	floodBy    *Router
	floodID    netID
	floodStart int32
	floodOK    bool
}

// scratch returns the router's search state, sized for its grid.
func (r *Router) scratch() *scratch {
	if r.sc == nil {
		r.sc = &scratch{}
	}
	if n := r.nx * r.ny; len(r.sc.cells) < n {
		// Grown like the owner grid (see resize), at full length: the
		// epoch wrap clears every cell, including the ones past this grid.
		r.sc.cells = make([]cell, max(n, 2*len(r.sc.cells)))
	}
	return r.sc
}

// ShareScratch makes r search with other's scratch instead of one of its
// own, so two routers that never search at the same time — a speculation
// clone and its idle master — keep one set of search buffers between
// them. The caller guarantees they never search concurrently.
func (r *Router) ShareScratch(other *Router) {
	if other.sc == nil {
		other.sc = &scratch{}
	}
	r.sc = other.sc
}

// nextEpoch invalidates all marks. When the epoch outgrows its 29 bits
// (once in half a billion searches) the marks are cleared so stale epochs
// can't alias.
func (sc *scratch) nextEpoch() {
	sc.epoch++
	if sc.epoch > maxEpoch {
		for i := range sc.cells {
			sc.cells[i].mark = 0
		}
		sc.epoch = 1
	}
}

// relax offers the cell a path of length g by step: a fresh cell, or a
// discovered one still open with a longer path, takes it and reports that
// it must be (re-)pushed. e is the current epoch shifted into place.
func (c *cell) relax(e uint32, g int32, step uint32) bool {
	if c.mark&^(closedBit|3) == e && (c.mark&closedBit != 0 || g >= c.g) {
		return false
	}
	c.mark, c.g = e|step, g
	return true
}

// noPathError and blockedError format lazily: Pass 3 probes many
// unreachable approach points and discards the error unseen, so Route's
// failure path must not pay for fmt.
type noPathError struct {
	net      string
	from, to geom.Point
}

func (e *noPathError) Error() string {
	return fmt.Sprintf("route: no path for %s from %v to %v", e.net, e.from, e.to)
}

type blockedError struct {
	net   string
	which string // "start" or "target"
	at    geom.Point
	owner string
}

func (e *blockedError) Error() string {
	return fmt.Sprintf("route: %s %s %v is blocked by %q", e.net, e.which, e.at, e.owner)
}

// Route finds a Manhattan path for net from one point to another,
// traveling through free cells and cells already owned by the net. On
// success the path's cells become owned by the net and the simplified
// corner-point path (starting at from, ending at to) is returned.
func (r *Router) Route(net string, from, to geom.Point) ([]geom.Point, error) {
	if net == "" {
		return nil, fmt.Errorf("route: empty net name")
	}
	id := r.intern(net)
	sx, sy := r.cellOf(from)
	tx, ty := r.cellOf(to)
	start := r.idx(sx, sy)
	goal := r.idx(tx, ty)
	if o := r.owner[start]; o != freeCell && o != id {
		return nil, &blockedError{net: net, which: "start", at: from, owner: r.names[o]}
	}
	if o := r.owner[goal]; o != freeCell && o != id {
		return nil, &blockedError{net: net, which: "target", at: to, owner: r.names[o]}
	}

	cells, ok := r.search(id, sx, sy, tx, ty)
	if !ok {
		return nil, &noPathError{net: net, from: from, to: to}
	}

	// Claim the path's cells.
	for _, c := range cells {
		r.setOwner(int(c.i), id)
	}

	// The point path from ... grid centers ... to (cells are in goal→start
	// walk-back order), simplified in scratch and returned as a copy the
	// caller owns.
	sc := r.sc
	pts := append(sc.pts[:0], from)
	for k := len(cells) - 1; k >= 0; k-- {
		pts = append(pts, r.center(int(cells[k].x), int(cells[k].y)))
	}
	pts = append(pts, to)
	sc.simp = simplify(sc.simp[:0], pts)
	sc.pts = pts
	return slices.Clone(sc.simp), nil
}

// search runs the bucketed best-first search from (sx,sy) to (tx,ty) for
// net id. On success it returns the path's cells in goal→start order (the
// slice aliases scratch and is valid until the next search).
func (r *Router) search(id netID, sx, sy, tx, ty int) ([]node, bool) {
	sc := r.scratch()
	n := r.nx * r.ny
	cells, owner := sc.cells[:n], r.owner[:n]
	start := int32(r.idx(sx, sy))
	goal := int32(r.idx(tx, ty))
	if sc.floodOK && sc.floodBy == r && sc.floodID == id && sc.floodStart == start {
		if cells[goal].mark>>epochShift != sc.epoch {
			// The previous search from this start flooded everything
			// reachable and never marked this goal, and nothing has
			// changed since (owner writes clear floodOK) — the goal is
			// still unreachable.
			r.stats.Searches++
			r.stats.Failures++
			return nil, false
		}
		// The flood marked the goal: it IS reachable. Fall through to a
		// full search rather than walking the flood's prev tree — that
		// tree was shaped by a different goal's heuristic, and re-running
		// keeps the returned path byte-identical to the cache-free search.
	}
	sc.floodOK = false
	sc.nextEpoch()
	e := sc.epoch << epochShift
	r.stats.Searches++

	cells[start] = cell{mark: e, g: 0}
	tgt := node{goal, int32(tx), int32(ty)}
	if start == goal {
		sc.path = append(sc.path[:0], tgt)
		return sc.path, true
	}

	nx, ny := int32(r.nx), int32(r.ny)
	cur, next := sc.cur[:0], sc.next[:0]
	cur = append(cur, node{start, int32(sx), int32(sy)})
	head := 0
	var expanded, peak int64 = 0, 1

	found := false
	for {
		if head == len(cur) {
			if len(next) == 0 {
				break
			}
			cur, next = next, cur[:0]
			head = 0
		}
		c := cur[head]
		head++
		cs := &cells[c.i]
		if cs.mark&closedBit != 0 {
			continue // stale entry superseded by a cheaper re-push
		}
		cs.mark |= closedBit
		expanded++
		if c.i == goal {
			found = true
			break
		}
		// Neighbours in the fixed order +x, −x, +y, −y. A step joins the
		// current f-level iff it moves toward the target on its axis (the
		// Manhattan heuristic drops by one); otherwise it lands at f+2.
		// Blocked reads are stable: owned cells never change mid-search.
		ng := cs.g + 1
		if c.x+1 < nx {
			ni := c.i + 1
			if o := owner[ni]; (o == freeCell || o == id) && cells[ni].relax(e, ng, stepPosX) {
				if c.x < tgt.x {
					cur = append(cur, node{ni, c.x + 1, c.y})
				} else {
					next = append(next, node{ni, c.x + 1, c.y})
				}
			}
		}
		if c.x > 0 {
			ni := c.i - 1
			if o := owner[ni]; (o == freeCell || o == id) && cells[ni].relax(e, ng, stepNegX) {
				if c.x > tgt.x {
					cur = append(cur, node{ni, c.x - 1, c.y})
				} else {
					next = append(next, node{ni, c.x - 1, c.y})
				}
			}
		}
		if c.y+1 < ny {
			ni := c.i + nx
			if o := owner[ni]; (o == freeCell || o == id) && cells[ni].relax(e, ng, stepPosY) {
				if c.y < tgt.y {
					cur = append(cur, node{ni, c.x, c.y + 1})
				} else {
					next = append(next, node{ni, c.x, c.y + 1})
				}
			}
		}
		if c.y > 0 {
			ni := c.i - nx
			if o := owner[ni]; (o == freeCell || o == id) && cells[ni].relax(e, ng, stepNegY) {
				if c.y > tgt.y {
					cur = append(cur, node{ni, c.x, c.y - 1})
				} else {
					next = append(next, node{ni, c.x, c.y - 1})
				}
			}
		}
		if f := int64(len(cur)-head) + int64(len(next)); f > peak {
			peak = f
		}
	}
	sc.cur, sc.next = cur[:0], next[:0]
	r.stats.CellsExpanded += expanded
	if peak > r.stats.FrontierPeak {
		r.stats.FrontierPeak = peak
	}
	if !found {
		r.stats.Failures++
		sc.floodOK, sc.floodBy, sc.floodID, sc.floodStart = true, r, id, start
		return nil, false
	}

	// Walk back from the goal, undoing each cell's recorded step. The
	// start is the one cell no step reached (its g is 0 and it closes
	// first, so no neighbour ever relaxes it).
	path := sc.path[:0]
	for c := tgt; ; {
		path = append(path, c)
		if c.i == start {
			sc.path = path
			return path, true
		}
		switch cells[c.i].mark & 3 {
		case stepPosX:
			c.i, c.x = c.i-1, c.x-1
		case stepNegX:
			c.i, c.x = c.i+1, c.x+1
		case stepPosY:
			c.i, c.y = c.i-nx, c.y-1
		default:
			c.i, c.y = c.i+nx, c.y+1
		}
	}
}

// simplify appends to dst the path pts with collinear interior points and
// zero-length steps removed, and an elbow inserted where consecutive
// points are not axis-aligned (the off-grid endpoints), keeping the path
// Manhattan.
func simplify(dst, pts []geom.Point) []geom.Point {
	if len(pts) == 0 {
		return dst
	}
	base := len(dst)
	// push appends the next Manhattan point, first dropping the previous
	// one when it sits collinear between its neighbours.
	push := func(p geom.Point) {
		if k := len(dst); k-base >= 2 {
			a, b := dst[k-2], dst[k-1]
			if (a.X == b.X && b.X == p.X) || (a.Y == b.Y && b.Y == p.Y) {
				dst[k-1] = p
				return
			}
		}
		dst = append(dst, p)
	}
	last := pts[0]
	dst = append(dst, last)
	for _, p := range pts[1:] {
		if p == last {
			continue
		}
		if p.X != last.X && p.Y != last.Y {
			push(geom.Pt(p.X, last.Y))
		}
		push(p)
		last = p
	}
	return dst
}
