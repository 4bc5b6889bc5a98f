package sticks

import (
	"strings"
	"testing"

	"bristleblocks/internal/geom"
	"bristleblocks/internal/layer"
)

func sample() *Diagram {
	d := &Diagram{}
	d.AddSeg(layer.Metal, geom.Pt(0, 0), geom.Pt(40, 0))
	d.AddSeg(layer.Poly, geom.Pt(20, -8), geom.Pt(20, 16))
	d.AddSeg(layer.Diff, geom.Pt(0, 8), geom.Pt(40, 8))
	d.AddDot("enh", geom.Pt(20, 8))
	d.AddDot("contact", geom.Pt(0, 0))
	d.AddPin("in", geom.Pt(20, -8))
	return d
}

func TestBBox(t *testing.T) {
	d := sample()
	if got := d.BBox(); got != geom.R(0, -8, 40, 16) {
		t.Errorf("BBox = %v", got)
	}
	var empty Diagram
	if got := empty.BBox(); got != (geom.Rect{}) {
		t.Errorf("empty BBox = %v", got)
	}
}

func TestTransformPreservesShape(t *testing.T) {
	d := sample()
	tr := geom.At(geom.R90, 100, 50)
	td := d.Transform(tr)
	if len(td.Segs) != len(d.Segs) || len(td.Dots) != len(d.Dots) || len(td.Pins) != len(d.Pins) {
		t.Fatal("transform changed feature counts")
	}
	if td.Segs[0].A != tr.Apply(d.Segs[0].A) {
		t.Error("segment endpoint not transformed")
	}
	// Round-trip through the inverse restores the original.
	back := td.Transform(tr.Inverse())
	if back.Segs[1] != d.Segs[1] || back.Pins[0] != d.Pins[0] {
		t.Error("inverse transform does not round-trip")
	}
}

func TestCopyAndMerge(t *testing.T) {
	d := sample()
	cp := d.Copy()
	cp.AddSeg(layer.Metal, geom.Pt(0, 0), geom.Pt(1, 1))
	if len(d.Segs) == len(cp.Segs) {
		t.Error("Copy should isolate")
	}
	n := len(d.Segs)
	d.MergeTransformed(cp, geom.Transform{})
	if len(d.Segs) != n+len(cp.Segs) {
		t.Error("Merge count wrong")
	}
}

func TestRender(t *testing.T) {
	d := sample()
	out := d.Render(geom.Lambda)
	if !strings.Contains(out, "~") {
		t.Errorf("metal glyph missing:\n%s", out)
	}
	if !strings.Contains(out, "|") {
		t.Errorf("poly glyph missing:\n%s", out)
	}
	if !strings.Contains(out, "T") {
		t.Errorf("transistor dot missing:\n%s", out)
	}
	if !strings.Contains(out, "o") {
		t.Errorf("pin marker missing:\n%s", out)
	}
	if !strings.Contains(out, "pins: in(20,-8)") {
		t.Errorf("pin legend missing:\n%s", out)
	}
	// The drawing is 11x7 characters at lambda scale.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 8 { // 7 grid rows + legend
		t.Errorf("render has %d lines:\n%s", len(lines), out)
	}
}

func TestRenderEmptyAndDefaults(t *testing.T) {
	var d Diagram
	if got := d.Render(0); !strings.Contains(got, "empty") {
		t.Errorf("empty render = %q", got)
	}
	d.AddSeg(layer.Glass, geom.Pt(0, 0), geom.Pt(8, 0)) // no glyph defined
	if got := d.Render(0); !strings.Contains(got, ".") {
		t.Errorf("unknown layer should use fallback glyph: %q", got)
	}
	d.AddDot("weird", geom.Pt(4, 0))
	if got := d.Render(0); !strings.Contains(got, "*") {
		t.Errorf("unknown dot should use fallback glyph: %q", got)
	}
}
