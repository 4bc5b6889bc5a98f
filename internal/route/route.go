// Package route provides the wire routers used by Pass 3: a grid-based
// maze router that finds Manhattan paths around obstacles, used to "add
// wires between the pads and the connection points".
//
// The search is A*-directed (Manhattan-distance heuristic over a bucketed
// two-FIFO frontier, see astar.go). Net names are interned to small
// integer ids so the owner grid is a []netID — cloning a router for
// speculative routing is a memcpy, and ownership tests never compare
// strings.
//
// For Pass 3's parallel fan-out the router exposes a snapshot/commit
// protocol: Clone gives a worker a private copy of the grid, SetRecorder
// captures the worker's write Footprint, and on the master router
// EnableJournal + ConflictSince + Apply let the commit loop detect whether
// a speculative route collides with an earlier commit and, if not, replay
// its writes. Ownership is monotone during that phase — cells only ever
// go free→owned, never owned→free or owned→other — which is what makes
// write-collision validation sound (see docs/ARCHITECTURE.md).
package route

import (
	"fmt"

	"bristleblocks/internal/geom"
)

// netID is an interned net name; 0 is the free cell.
type netID int32

const freeCell netID = 0

// Footprint records the cells a speculative routing unit claimed (path
// cells and inflated wire claims). The commit loop validates it with
// ConflictSince: a write cell that changed owner after the snapshot means
// the unit's wire collides with an earlier commit and must re-route.
// Reads need no tracking — ownership is monotone during the commit phase
// (cells only go free→owned), so a cell observed OWNED can never change,
// and a cell observed free that an earlier commit then claimed either
// shows up in this unit's writes (collision, caught here) or only steered
// its search (legal either way; the geometry is re-checked at commit
// against the segments committed since the snapshot).
type Footprint struct {
	Writes []int32
}

// SearchStats counts the work the router's searches did. CellsExpanded is
// the number of cells closed (popped and expanded) across all searches;
// FrontierPeak is the largest frontier any single search reached.
type SearchStats struct {
	Searches      int64
	Failures      int64
	CellsExpanded int64
	FrontierPeak  int64
}

// Add merges o into s (FrontierPeak by max, the counters by sum).
func (s *SearchStats) Add(o SearchStats) {
	s.Searches += o.Searches
	s.Failures += o.Failures
	s.CellsExpanded += o.CellsExpanded
	if o.FrontierPeak > s.FrontierPeak {
		s.FrontierPeak = o.FrontierPeak
	}
}

// Router is a maze router over a uniform grid. Each grid cell is either
// free, or owned by a net; a route for net N may pass through free cells
// and cells already owned by N (so multi-terminal nets merge naturally),
// and blocks the cells it uses. A Router is not safe for concurrent use;
// parallel callers work on Clones.
type Router struct {
	region geom.Rect
	pitch  geom.Coord
	nx, ny int
	owner  []netID

	names []string         // names[id] = net name; names[0] = ""
	ids   map[string]netID // inverse of names
	// shared marks names/ids as borrowed from the router this one was
	// cloned from; intern copies them before its first insert. Clones may
	// share one table concurrently because the fan-out protocol never
	// overlaps a parent mutation with a clone read: the master is idle
	// while its clones route, and the clones are dead before the commit
	// loop writes the master.
	shared bool

	// journal[i] is the Seq at which cell i last changed owner (0 = during
	// setup, before EnableJournal). Only the master router of a speculative
	// fan-out journals; clones leave it nil.
	journal []int32
	seq     int32

	rec *Footprint // nil when not recording

	sc *scratch // reusable search buffers, allocated on first Route

	stats SearchStats
}

// New creates a router over the region with the given grid pitch. The
// pitch should be at least wire width + spacing (8λ for 4λ metal at 3λ
// spacing, rounded up for margin).
func New(region geom.Rect, pitch geom.Coord) (*Router, error) {
	if pitch <= 0 {
		return nil, fmt.Errorf("route: non-positive pitch %d", pitch)
	}
	if region.Empty() {
		return nil, fmt.Errorf("route: empty region")
	}
	nx := int((region.W() + pitch - 1) / pitch)
	ny := int((region.H() + pitch - 1) / pitch)
	return &Router{
		region: region,
		pitch:  pitch,
		nx:     nx,
		ny:     ny,
		owner:  make([]netID, nx*ny),
		names:  []string{""},
		ids:    map[string]netID{"": freeCell},
	}, nil
}

// Reset returns the router to an all-free grid, keeping its allocations —
// owner and journal arrays, search scratch, interned net names — for the
// next attempt. A rip-up ladder re-routes the same placement dozens of
// times; rebuilding the router each attempt made the allocator, not the
// search, the bottleneck.
func (r *Router) Reset() {
	clear(r.owner)
	clear(r.journal)
	r.seq = 0
	r.stats = SearchStats{}
	r.rec = nil
	if r.sc != nil {
		r.sc.floodOK = false
	}
}

// GridSize returns the router's grid dimensions.
func (r *Router) GridSize() (nx, ny int) { return r.nx, r.ny }

// Stats returns the accumulated search statistics.
func (r *Router) Stats() SearchStats { return r.stats }

// AddStats merges a clone's search statistics into the router's own (the
// commit loop calls this in deterministic unit order).
func (r *Router) AddStats(s SearchStats) { r.stats.Add(s) }

// Clone returns a private copy of the grid for speculative routing: same
// region, pitch and interned nets, its own owner array (a
// single memcpy), fresh statistics, no journal and no recorder. The net
// name tables are shared copy-on-write — a clone routing an already-known
// net (the usual case; its terminals were claimed on the master) never
// touches them.
func (r *Router) Clone() *Router {
	return &Router{
		region: r.region,
		pitch:  r.pitch,
		nx:     r.nx,
		ny:     r.ny,
		owner:  append([]netID(nil), r.owner...),
		names:  r.names,
		ids:    r.ids,
		shared: true,
	}
}

// CloneInto is Clone reusing dst's buffers — owner array and search
// scratch — so a worker that routes many speculative units allocates one
// clone, not one per unit. dst must be a previous CloneInto/Clone result
// (never a journaling master); a nil or grid-mismatched dst falls back to
// a fresh Clone.
func (r *Router) CloneInto(dst *Router) *Router {
	if dst == nil || dst.nx != r.nx || dst.ny != r.ny || dst.journal != nil {
		return r.Clone()
	}
	dst.region, dst.pitch = r.region, r.pitch
	copy(dst.owner, r.owner)
	dst.names = r.names
	dst.ids = r.ids
	dst.shared = true
	dst.seq = 0
	dst.stats = SearchStats{}
	dst.rec = nil
	if dst.sc != nil {
		dst.sc.floodOK = false
	}
	return dst
}

// SetRecorder directs the router to record the cells it writes into fp
// (nil stops recording). Workers set this on their Clone so the commit
// loop can check the route for collisions against later commits.
func (r *Router) SetRecorder(fp *Footprint) { r.rec = fp }

// EnableJournal starts journalling owner changes on the master router so
// ConflictSince can answer "did any of these cells change since sequence
// point s?".
func (r *Router) EnableJournal() {
	if r.journal == nil {
		r.journal = make([]int32, r.nx*r.ny)
	}
}

// Seq returns the current commit sequence number (the snapshot point a
// speculative unit validates against).
func (r *Router) Seq() int32 { return r.seq }

// BumpSeq advances the commit sequence; the commit loop calls it once per
// unit so that unit's writes are distinguishable from earlier ones.
func (r *Router) BumpSeq() int32 { r.seq++; return r.seq }

// ConflictSince reports whether any cell in the footprint's write set
// changed owner after sequence point since — i.e. an earlier commit
// claimed a cell this unit's wire also needs. Requires EnableJournal.
func (r *Router) ConflictSince(fp *Footprint, since int32) bool {
	for _, i := range fp.Writes {
		if r.journal[i] > since {
			return true
		}
	}
	return false
}

// Apply replays a validated speculative unit's writes onto the master
// grid. Sound only after ConflictSince returned false: a clone only ever
// writes cells that were free or owned by its own net at the snapshot
// (searches cannot enter foreign cells and Claim skips owned ones), and no
// conflict means no commit has touched those cells since — so on the
// master each written cell is still free or already this net's.
func (r *Router) Apply(fp *Footprint, net string) {
	id := r.intern(net)
	for _, i := range fp.Writes {
		r.setOwner(int(i), id)
	}
}

// intern maps a net name to its id, allocating one on first sight. A
// router still sharing its tables with its clone parent copies them
// before the first insert (see Router.shared).
func (r *Router) intern(net string) netID {
	if id, ok := r.ids[net]; ok {
		return id
	}
	if r.shared {
		ids := make(map[string]netID, len(r.ids)+1)
		for k, v := range r.ids {
			ids[k] = v
		}
		r.ids = ids
		r.names = append([]string(nil), r.names...)
		r.shared = false
	}
	id := netID(len(r.names))
	r.names = append(r.names, net)
	r.ids[net] = id
	return id
}

// setOwner is the single owner-write path: it stamps the journal and the
// recorder, so speculation never misses a write, and invalidates the
// failed-flood cache, whose reachability answer assumed a frozen grid.
func (r *Router) setOwner(i int, id netID) {
	r.owner[i] = id
	if r.journal != nil {
		r.journal[i] = r.seq
	}
	if r.rec != nil {
		r.rec.Writes = append(r.rec.Writes, int32(i))
	}
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
//
// NearestOwned deliberately records nothing: it only reads the net's OWN
// cells, and during the commit phase no other unit writes this net (units
// sharing a net name are forced onto the serial path by the pads pass),
// so the answer a speculative clone computes is the answer the serial
// order would have computed.
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
