package route

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"bristleblocks/internal/geom"
)

func mustRouter(t *testing.T, region geom.Rect, pitch geom.Coord) *Router {
	t.Helper()
	r, err := New(region, pitch)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkManhattan asserts a path is axis-aligned and connects the endpoints.
func checkManhattan(t *testing.T, pts []geom.Point, from, to geom.Point) {
	t.Helper()
	if len(pts) < 1 || pts[0] != from || pts[len(pts)-1] != to {
		t.Fatalf("path endpoints wrong: %v (want %v .. %v)", pts, from, to)
	}
	for i := 0; i+1 < len(pts); i++ {
		a, b := pts[i], pts[i+1]
		if a.X != b.X && a.Y != b.Y {
			t.Fatalf("non-Manhattan segment %v -> %v in %v", a, b, pts)
		}
	}
}

func TestStraightRoute(t *testing.T) {
	r := mustRouter(t, geom.R(0, 0, 800, 800), 32)
	from, to := geom.Pt(48, 48), geom.Pt(720, 48)
	pts, err := r.Route("n1", from, to)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	checkManhattan(t, pts, from, to)
	if got := PathLength(pts); got != from.Manhattan(to) {
		t.Errorf("straight route length %d, want %d", got, from.Manhattan(to))
	}
}

func TestRouteAroundObstacle(t *testing.T) {
	r := mustRouter(t, geom.R(0, 0, 800, 800), 32)
	// A wall with a gap at the top.
	r.Block(geom.R(380, 0, 420, 700), "wall")
	from, to := geom.Pt(48, 400), geom.Pt(752, 400)
	pts, err := r.Route("n1", from, to)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	checkManhattan(t, pts, from, to)
	if PathLength(pts) <= from.Manhattan(to) {
		t.Error("detour should be longer than the straight line")
	}
	// The path must clear the wall's grid cells.
	for _, p := range pts {
		if r.Owner(p) == "wall" {
			t.Errorf("path corner %v lies on the wall", p)
		}
	}
}

func TestRouteBlockedCompletely(t *testing.T) {
	r := mustRouter(t, geom.R(0, 0, 800, 800), 32)
	r.Block(geom.R(300, 0, 340, 800), "wall") // full-height wall
	_, err := r.Route("n1", geom.Pt(48, 400), geom.Pt(752, 400))
	if err == nil || !strings.Contains(err.Error(), "no path") {
		t.Errorf("want no-path error, got %v", err)
	}
}

func TestRouteBlockedEndpoint(t *testing.T) {
	r := mustRouter(t, geom.R(0, 0, 800, 800), 32)
	r.Block(geom.R(0, 0, 100, 100), "x")
	if _, err := r.Route("n1", geom.Pt(50, 50), geom.Pt(700, 700)); err == nil {
		t.Error("blocked start should fail")
	}
	if _, err := r.Route("n1", geom.Pt(700, 700), geom.Pt(50, 50)); err == nil {
		t.Error("blocked target should fail")
	}
}

func TestRoutesDoNotCross(t *testing.T) {
	// Two nets forced through the same corridor: the second must detour
	// or fail, never share cells with the first.
	r := mustRouter(t, geom.R(0, 0, 800, 800), 32)
	p1, err := r.Route("a", geom.Pt(48, 200), geom.Pt(752, 200))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.Route("b", geom.Pt(48, 240), geom.Pt(752, 240))
	if err != nil {
		t.Fatal(err)
	}
	_ = p1
	for _, p := range p2 {
		if r.Owner(p) != "b" {
			t.Errorf("net b corner %v owned by %q", p, r.Owner(p))
		}
	}
}

func TestSameNetMayMerge(t *testing.T) {
	r := mustRouter(t, geom.R(0, 0, 800, 800), 32)
	if _, err := r.Route("a", geom.Pt(48, 400), geom.Pt(752, 400)); err != nil {
		t.Fatal(err)
	}
	// A second terminal of the same net may ride the existing trunk.
	if _, err := r.Route("a", geom.Pt(400, 48), geom.Pt(400, 752)); err != nil {
		t.Fatalf("same-net crossing should be allowed: %v", err)
	}
	// A different net may not.
	if _, err := r.Route("c", geom.Pt(300, 48), geom.Pt(300, 752)); err == nil {
		// It can still detour around the trunk's ends — verify no shared cells instead.
		t.Log("net c found a detour (fine)")
	}
}

func TestRouterValidation(t *testing.T) {
	if _, err := New(geom.R(0, 0, 10, 10), 0); err == nil {
		t.Error("zero pitch should fail")
	}
	if _, err := New(geom.Rect{}, 8); err == nil {
		t.Error("empty region should fail")
	}
	if _, err := New(geom.R(0, 0, 1<<20, 1<<20), 1); err == nil {
		t.Error("a grid past int32 cell indices should fail")
	}
	r := mustRouter(t, geom.R(0, 0, 100, 100), 10)
	if _, err := r.Route("", geom.Pt(5, 5), geom.Pt(95, 95)); err == nil {
		t.Error("empty net name should fail")
	}
}

func TestRouteLengthNeverBelowManhattan(t *testing.T) {
	f := func(ax, ay, bx, by uint8) bool {
		r, err := New(geom.R(0, 0, 1024, 1024), 32)
		if err != nil {
			return false
		}
		from := geom.Pt(geom.Coord(ax)*4, geom.Coord(ay)*4)
		to := geom.Pt(geom.Coord(bx)*4, geom.Coord(by)*4)
		pts, err := r.Route("n", from, to)
		if err != nil {
			return false
		}
		return PathLength(pts) >= from.Manhattan(to)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGridSize(t *testing.T) {
	r := mustRouter(t, geom.R(0, 0, 100, 60), 10)
	nx, ny := r.GridSize()
	if nx != 10 || ny != 6 {
		t.Errorf("grid %dx%d", nx, ny)
	}
}

func TestClaimOnlyFreeCells(t *testing.T) {
	r, err := New(geom.R(0, 0, geom.L(100), geom.L(100)), geom.L(10))
	if err != nil {
		t.Fatal(err)
	}
	r.Claim(geom.R(0, 0, geom.L(30), geom.L(10)), "a")
	// A second claim over an overlapping region must not steal a's cells.
	r.Claim(geom.R(0, 0, geom.L(50), geom.L(10)), "b")
	if got := r.Owner(geom.Pt(geom.L(5), geom.L(5))); got != "a" {
		t.Errorf("cell stolen: owner = %q, want a", got)
	}
	if got := r.Owner(geom.Pt(geom.L(45), geom.L(5))); got != "b" {
		t.Errorf("free cell not claimed: owner = %q, want b", got)
	}
}

func TestNearestOwned(t *testing.T) {
	r, err := New(geom.R(0, 0, geom.L(100), geom.L(100)), geom.L(10))
	if err != nil {
		t.Fatal(err)
	}
	r.Claim(geom.R(0, 0, geom.L(10), geom.L(10)), "n")
	r.Claim(geom.R(geom.L(80), geom.L(80), geom.L(90), geom.L(90)), "n")

	p, ok := r.NearestOwned("n", geom.Pt(geom.L(85), geom.L(85)))
	if !ok {
		t.Fatal("net owns cells but NearestOwned says no")
	}
	if p.X < geom.L(70) || p.Y < geom.L(70) {
		t.Errorf("nearest cell %v is the far one", p)
	}
	if _, ok := r.NearestOwned("ghost", geom.Pt(0, 0)); ok {
		t.Error("unknown net reported as owning cells")
	}
}

func TestPathLength(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 7}}
	if got := PathLength(pts); got != 17 {
		t.Errorf("PathLength = %d, want 17", got)
	}
	if PathLength(nil) != 0 || PathLength(pts[:1]) != 0 {
		t.Error("degenerate paths should measure 0")
	}
}

// TestHugTakesInnerStaircase routes across a blocked core's corner, where
// every monotone staircase is a shortest path. The one-ring FIFO returns
// the outermost one — along the grid's edge — and the hugging tie-break
// the innermost one, which closes in on the core and turns its corner one
// cell out. Both are Lee-optimal; a Reshape restores FIFO.
func TestHugTakesInnerStaircase(t *testing.T) {
	const p = geom.Coord(10)
	region := geom.R(0, 0, 14*p, 14*p)
	core := geom.R(5*p, 5*p, 9*p, 9*p)
	pt := func(x, y int) geom.Point { return geom.Pt(geom.Coord(x)*p+p/2, geom.Coord(y)*p+p/2) }
	outer := []geom.Point{pt(1, 12), pt(12, 12), pt(12, 1)}
	inner := []geom.Point{pt(1, 12), pt(2, 12), pt(2, 11), pt(3, 11), pt(3, 10), pt(4, 10), pt(4, 9),
		pt(9, 9), pt(9, 4), pt(10, 4), pt(10, 3), pt(11, 3), pt(11, 2), pt(12, 2), pt(12, 1)}
	for _, tc := range []struct {
		name  string
		rings int
		want  []geom.Point
	}{{"fifo", 1, outer}, {"hug", 6, inner}} {
		r := mustRouter(t, region, p)
		r.Block(core, "core!")
		r.Hug(core, tc.rings)
		got, err := r.Route("n", pt(1, 12), pt(12, 1))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: path %v, want %v", tc.name, got, tc.want)
		}
		if n := PathLength(got); n != 22*p {
			t.Errorf("%s: length %d, want the Lee-optimal %d", tc.name, n, 22*p)
		}
		if err := r.Reshape(region, p); err != nil {
			t.Fatal(err)
		}
		r.Block(core, "core!")
		if got, _ := r.Route("n", pt(1, 12), pt(12, 1)); !slices.Equal(got, outer) {
			t.Errorf("%s: after Reshape, path %v, want FIFO's %v", tc.name, got, outer)
		}
	}
}
