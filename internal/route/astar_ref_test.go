package route

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bristleblocks/internal/geom"
)

// refScratch and refSearch are a frozen copy of the four-array A* kernel
// (parallel stamp/closed/gval/prev arrays, coordinates divided out of the
// cell index, neighbours visited through a direction table) that the
// packed kernel in astar.go replaced. They are the reference the
// differential test holds search to: identical paths and identical
// SearchStats on every probe. Do not optimise this copy.
type refScratch struct {
	stamp  []uint32
	closed []uint32
	gval   []int32
	prev   []int32
	epoch  uint32
	cur    []int32
	next   []int32
	path   []int32

	floodID    netID
	floodStart int32
	floodOK    bool
}

func newRefScratch(n int) *refScratch {
	return &refScratch{
		stamp:  make([]uint32, n),
		closed: make([]uint32, n),
		gval:   make([]int32, n),
		prev:   make([]int32, n),
	}
}

func (sc *refScratch) nextEpoch() {
	sc.epoch++
	if sc.epoch == 0 {
		for i := range sc.stamp {
			sc.stamp[i], sc.closed[i] = 0, 0
		}
		sc.epoch = 1
	}
}

func (r *Router) refSearch(sc *refScratch, stats *SearchStats, id netID, sx, sy, tx, ty int) ([]int32, bool) {
	start := int32(r.idx(sx, sy))
	goal := int32(r.idx(tx, ty))
	if sc.floodOK && sc.floodID == id && sc.floodStart == start {
		if sc.stamp[goal] != sc.epoch {
			stats.Searches++
			stats.Failures++
			return nil, false
		}
	}
	sc.floodOK = false
	sc.nextEpoch()
	e := sc.epoch
	stats.Searches++

	sc.stamp[start] = e
	sc.gval[start] = 0
	sc.prev[start] = -1
	if start == goal {
		sc.path = append(sc.path[:0], goal)
		return sc.path, true
	}

	cur, next := sc.cur[:0], sc.next[:0]
	cur = append(cur, start)
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
		ci := cur[head]
		head++
		if sc.closed[ci] == e {
			continue
		}
		sc.closed[ci] = e
		expanded++
		if ci == goal {
			found = true
			break
		}
		g := sc.gval[ci]
		cx, cy := int(ci)%r.nx, int(ci)/r.nx
		hc := abs(cx-tx) + abs(cy-ty)
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx2, ny2 := cx+d[0], cy+d[1]
			if !r.inBounds(nx2, ny2) {
				continue
			}
			ni := int32(r.idx(nx2, ny2))
			o := r.owner[ni]
			if o != freeCell && o != id {
				continue
			}
			fresh := sc.stamp[ni] != e
			ng := g + 1
			if !fresh && (sc.closed[ni] == e || ng >= sc.gval[ni]) {
				continue
			}
			sc.stamp[ni] = e
			sc.gval[ni] = ng
			sc.prev[ni] = ci
			if abs(nx2-tx)+abs(ny2-ty) < hc {
				cur = append(cur, ni)
			} else {
				next = append(next, ni)
			}
		}
		if f := int64(len(cur)-head) + int64(len(next)); f > peak {
			peak = f
		}
	}
	sc.cur, sc.next = cur[:0], next[:0]
	stats.CellsExpanded += expanded
	if peak > stats.FrontierPeak {
		stats.FrontierPeak = peak
	}
	if !found {
		stats.Failures++
		sc.floodOK, sc.floodID, sc.floodStart = true, id, start
		return nil, false
	}

	sc.path = sc.path[:0]
	for i := goal; ; i = sc.prev[i] {
		sc.path = append(sc.path, i)
		if sc.prev[i] == -1 {
			break
		}
	}
	return sc.path, true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// kernelPair drives the packed kernel and the reference over one router,
// failing the test on the first probe where their paths or stats differ.
type kernelPair struct {
	t     *testing.T
	r     *Router
	ref   *refScratch
	stats SearchStats
}

func newKernelPair(t *testing.T, nx, ny int) *kernelPair {
	t.Helper()
	const p = geom.Coord(10)
	r := mustRouter(t, geom.R(0, 0, geom.Coord(nx)*p, geom.Coord(ny)*p), p)
	return &kernelPair{t: t, r: r, ref: newRefScratch(nx * ny)}
}

// own writes one cell the way Route and Claim do, invalidating both
// kernels' failed-flood caches.
func (k *kernelPair) own(i int, id netID) {
	k.r.setOwner(i, id)
	k.ref.floodOK = false
}

func (k *kernelPair) probe(id netID, sx, sy, tx, ty int) ([]int32, bool) {
	k.t.Helper()
	want, wantOK := k.r.refSearch(k.ref, &k.stats, id, sx, sy, tx, ty)
	nodes, gotOK := k.r.search(id, sx, sy, tx, ty)
	var got []int32
	for _, c := range nodes {
		if int(c.i) != k.r.idx(int(c.x), int(c.y)) {
			k.t.Fatalf("path cell %d carries coordinates (%d,%d) on a %d-wide grid", c.i, c.x, c.y, k.r.nx)
		}
		got = append(got, c.i)
	}
	if gotOK != wantOK || !slices.Equal(got, want) {
		k.t.Fatalf("net %d (%d,%d)->(%d,%d) on %dx%d: path %v ok=%v, reference %v ok=%v",
			id, sx, sy, tx, ty, k.r.nx, k.r.ny, got, gotOK, want, wantOK)
	}
	if k.r.stats != k.stats {
		k.t.Fatalf("net %d (%d,%d)->(%d,%d) on %dx%d: stats %+v, reference %+v",
			id, sx, sy, tx, ty, k.r.nx, k.r.ny, k.r.stats, k.stats)
	}
	return got, gotOK
}

// TestSearchMatchesReference holds the packed kernel to the frozen
// four-array kernel on seeded random grids: random ownership by several
// nets, random probes (claiming the found paths, as Route does), repeated
// probes from one start through the failed-flood cache, start == goal,
// blocked starts and targets, degenerate one-row and one-column grids,
// and a forced epoch wrap.
func TestSearchMatchesReference(t *testing.T) {
	sizes := [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {7, 5}, {24, 24}, {40, 17}, {13, 50}}
	for _, sz := range sizes {
		for seed := int64(1); seed <= 6; seed++ {
			nx, ny, seed := sz[0], sz[1], seed
			t.Run(fmt.Sprintf("%dx%d-seed%d", nx, ny, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				k := newKernelPair(t, nx, ny)
				ids := []netID{k.r.intern("a"), k.r.intern("b"), k.r.intern("c"), k.r.intern("obs")}
				n := nx * ny
				// Random ownership: a quarter to a half of the cells.
				density := 0.25 + 0.25*rng.Float64()
				for i := 0; i < n; i++ {
					if rng.Float64() < density {
						k.own(i, ids[rng.Intn(len(ids))])
					}
				}
				cell := func() (int, int) { return rng.Intn(nx), rng.Intn(ny) }
				for probe := 0; probe < 60; probe++ {
					id := ids[rng.Intn(3)]
					sx, sy := cell()
					switch rng.Intn(4) {
					case 0: // start == goal
						k.probe(id, sx, sy, sx, sy)
					case 1: // many targets from one start: the flood cache
						for j := 0; j < 8; j++ {
							tx, ty := cell()
							k.probe(id, sx, sy, tx, ty)
						}
					default:
						tx, ty := cell()
						path, ok := k.probe(id, sx, sy, tx, ty)
						if ok && rng.Intn(2) == 0 {
							for _, c := range path {
								k.own(int(c), id)
							}
						}
					}
				}
			})
		}
	}
}

// TestSearchMatchesReferenceBlocked covers endpoints the search itself
// does not guard (Route rejects them first): a start and a target owned
// by another net, on a grid whose other cells are free.
func TestSearchMatchesReferenceBlocked(t *testing.T) {
	k := newKernelPair(t, 12, 9)
	a, b := k.r.intern("a"), k.r.intern("b")
	k.own(k.r.idx(3, 3), b) // start blocked for a
	k.own(k.r.idx(8, 6), b) // target blocked for a
	k.probe(a, 3, 3, 10, 7) // blocked start: the search still leaves it
	k.probe(a, 1, 1, 8, 6)  // blocked target: floods, fails
	k.probe(a, 1, 1, 8, 6)  // same probe again: answered by the flood cache
	k.probe(a, 1, 1, 5, 5)  // same start, reachable goal: falls through
	k.probe(a, 3, 3, 3, 3)  // blocked start == goal
	k.probe(b, 8, 6, 3, 3)  // b's own cells are passable to b
	k.own(k.r.idx(2, 1), a) // a write invalidates the flood
	k.probe(a, 1, 1, 8, 6)
}

// TestSearchMatchesReferenceEpochWrap forces the epoch counter to wrap in
// the middle of a probe sequence. A failed flood before the jump leaves
// closed marks over the start's whole component at the first epoch, which
// the wrap restarts at; a wrap that failed to clear them would alias. Both
// kernels must clear, and paths and stats stay identical through the wrap.
func TestSearchMatchesReferenceEpochWrap(t *testing.T) {
	const nx, ny = 20, 14
	k := newKernelPair(t, nx, ny)
	rng := rand.New(rand.NewSource(7))
	a, obs := k.r.intern("a"), k.r.intern("obs")
	for i := 0; i < nx*ny; i++ {
		if rng.Intn(5) == 0 {
			k.own(i, obs)
		}
	}
	free := func() (int, int) {
		for {
			x, y := rng.Intn(nx), rng.Intn(ny)
			if k.r.owner[k.r.idx(x, y)] == freeCell {
				return x, y
			}
		}
	}
	sx, sy := free()
	k.own(k.r.idx(nx-1, ny-1), obs)
	if _, ok := k.probe(a, sx, sy, nx-1, ny-1); ok {
		t.Fatal("probe into a blocked target succeeded")
	}
	k.r.sc.epoch = maxEpoch - 2
	k.ref.epoch = math.MaxUint32 - 2
	found := 0
	for i := 0; i < 24; i++ {
		sx, sy := free()
		tx, ty := free()
		if _, ok := k.probe(a, sx, sy, tx, ty); ok {
			found++
		}
	}
	if k.r.sc.epoch > 100 || k.ref.epoch > 100 {
		t.Fatalf("epochs %d and %d: the probes did not wrap them", k.r.sc.epoch, k.ref.epoch)
	}
	if found == 0 {
		t.Fatal("no probe after the wrap found a path")
	}
}
