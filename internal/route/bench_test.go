package route

import (
	"math/rand"
	"testing"

	"bristleblocks/internal/geom"
)

// BenchmarkSearch times the A* kernel alone on a Pass-3-sized grid: 160×
// 140 cells at the 14λ routing pitch, a blocked core with a 16λ band in
// the middle, scattered foreign claims in the moat, and a fixed probe set
// that mixes routes around the core with walled-in targets (full failed
// floods, then flood-cache answers). Nothing is claimed, so every
// iteration repeats the same searches; ns/cell is the time per expanded
// cell, and a steady-state op allocates nothing.
func BenchmarkSearch(b *testing.B) {
	pitch := geom.L(14)
	const nx, ny = 160, 140
	r, err := New(geom.R(0, 0, nx*pitch, ny*pitch), pitch)
	if err != nil {
		b.Fatal(err)
	}
	r.Block(geom.R(40*pitch, 35*pitch, 120*pitch, 105*pitch), "core!")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		x, y := rng.Intn(nx), rng.Intn(ny)
		r.Claim(geom.R(geom.Coord(x)*pitch, geom.Coord(y)*pitch, geom.Coord(x+1+rng.Intn(3))*pitch, geom.Coord(y+1)*pitch), "other")
	}
	// A walled-in pocket: probes into it flood the start's component.
	r.Block(geom.R(5*pitch, 5*pitch, 15*pitch, 6*pitch), "wall")
	r.Block(geom.R(5*pitch, 14*pitch, 15*pitch, 15*pitch), "wall")
	r.Block(geom.R(5*pitch, 6*pitch, 6*pitch, 14*pitch), "wall")
	r.Block(geom.R(14*pitch, 6*pitch, 15*pitch, 14*pitch), "wall")
	id := r.intern("n")
	type probe struct{ sx, sy, tx, ty int }
	var probes []probe
	free := func() (int, int) {
		for {
			x, y := rng.Intn(nx), rng.Intn(ny)
			if r.owner[r.idx(x, y)] == freeCell {
				return x, y
			}
		}
	}
	for i := 0; i < 24; i++ {
		sx, sy := free()
		tx, ty := free()
		probes = append(probes, probe{sx, sy, tx, ty})
		if i%6 == 0 {
			probes = append(probes, probe{sx, sy, 9, 9}, probe{sx, sy, 10, 10})
		}
	}
	run := func() {
		for _, p := range probes {
			r.search(id, p.sx, p.sy, p.tx, p.ty)
		}
	}
	for i := 0; i < 3; i++ {
		run() // size the scratch and the frontier buckets
	}
	r.stats = SearchStats{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	if r.stats.Failures == 0 || r.stats.Failures == r.stats.Searches {
		b.Fatalf("probe set is degenerate: %+v", r.stats)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(r.stats.CellsExpanded), "ns/cell")
}
