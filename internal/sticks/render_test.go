package sticks

import (
	"testing"

	"bristleblocks/internal/geom"
	"bristleblocks/internal/layer"
)

// Exact-output tests for Render's edge cases: fallback glyphs, draw order,
// the pin legend, scale defaulting and degenerate diagrams.

func checkRender(t *testing.T, name string, d *Diagram, scale geom.Coord, want string) {
	t.Helper()
	if got := d.Render(scale); got != want {
		t.Errorf("%s:\n got %q\nwant %q", name, got, want)
	}
}

func TestRenderFallbackGlyphs(t *testing.T) {
	d := &Diagram{}
	d.AddSeg(layer.Glass, geom.Pt(0, 0), geom.Pt(16, 0)) // no glyph: '.'
	d.AddSeg(layer.Metal, geom.Pt(0, 8), geom.Pt(8, 16)) // non-Manhattan: '?' ends
	d.AddDot("weird", geom.Pt(16, 16))                   // unknown kind: '*'
	checkRender(t, "fallbacks", d, geom.Lambda, "  ? *\n\n?\n\n.....\n")
}

func TestRenderDrawOrder(t *testing.T) {
	d := &Diagram{}
	d.AddSeg(layer.Metal, geom.Pt(0, 0), geom.Pt(8, 0))
	d.AddSeg(layer.Diff, geom.Pt(0, 0), geom.Pt(8, 0)) // drawn first: lower layer
	d.AddSeg(layer.Poly, geom.Pt(0, 4), geom.Pt(8, 4))
	d.AddSeg(layer.Poly, geom.Pt(4, 0), geom.Pt(4, 8))       // same layer: later wins
	d.AddSeg(layer.Layer(200), geom.Pt(8, 0), geom.Pt(8, 0)) // unknown layer sorts last
	d.AddDot("contact", geom.Pt(0, 0))
	// Metal overdraws the poly stick on the bottom row; poly never
	// overdraws metal however the segments were added.
	checkRender(t, "draw order", d, geom.Lambda, " |\n-|-\nX~.\n")
}

func TestRenderDuplicatePinNames(t *testing.T) {
	d := &Diagram{}
	d.AddSeg(layer.Poly, geom.Pt(0, 0), geom.Pt(12, 0))
	d.AddPin("b", geom.Pt(0, 0))
	d.AddPin("a", geom.Pt(8, 0))
	d.AddPin("a", geom.Pt(4, 0))
	checkRender(t, "duplicate pins", d, geom.Lambda, "ooo-\npins: a(8,0) a(4,0) b(0,0)\n")
}

func TestRenderNonPositiveScale(t *testing.T) {
	want := sample().Render(geom.Lambda)
	for _, scale := range []geom.Coord{0, -8} {
		checkRender(t, "scale", sample(), scale, want)
	}
}

func TestRenderOnePoint(t *testing.T) {
	pinOnly := &Diagram{}
	pinOnly.AddPin("p", geom.Pt(5, 5))
	checkRender(t, "pin only", pinOnly, geom.Lambda, "(empty sticks diagram)\n")

	seg := &Diagram{}
	seg.AddSeg(layer.Diff, geom.Pt(5, 5), geom.Pt(5, 5))
	checkRender(t, "zero-length segment", seg, geom.Lambda, "=\n")

	seg.AddPin("p", geom.Pt(5, 5))
	checkRender(t, "segment and pin", seg, geom.Lambda, "o\npins: p(5,5)\n")
}
