// Package sticks implements the Sticks level of representation: a diagram
// with the same topology as the layout but with every feature reduced to a
// single-width line, which the paper notes is "much easier to comprehend
// than the full layout diagram".
package sticks

import (
	"bytes"
	"slices"
	"sort"
	"strconv"

	"bristleblocks/internal/geom"
	"bristleblocks/internal/layer"
)

// Seg is one single-width stick on a mask layer between two points on a
// Manhattan grid.
type Seg struct {
	Layer layer.Layer
	A, B  geom.Point
}

// Dot marks a device or contact site in the diagram.
type Dot struct {
	Kind string // "contact", "enh", "dep", "buried"
	At   geom.Point
}

// Pin is a named terminal of the diagram.
type Pin struct {
	Name string
	At   geom.Point
}

// Diagram is a sticks diagram for one cell.
type Diagram struct {
	Segs []Seg
	Dots []Dot
	Pins []Pin
}

// AddSeg appends a stick between a and b.
func (d *Diagram) AddSeg(l layer.Layer, a, b geom.Point) {
	d.Segs = append(d.Segs, Seg{l, a, b})
}

// AddDot appends a device/contact marker.
func (d *Diagram) AddDot(kind string, at geom.Point) {
	d.Dots = append(d.Dots, Dot{kind, at})
}

// AddPin appends a named terminal.
func (d *Diagram) AddPin(name string, at geom.Point) {
	d.Pins = append(d.Pins, Pin{name, at})
}

// Copy returns a deep copy of the diagram.
func (d *Diagram) Copy() *Diagram {
	out := &Diagram{
		Segs: append([]Seg(nil), d.Segs...),
		Dots: append([]Dot(nil), d.Dots...),
		Pins: append([]Pin(nil), d.Pins...),
	}
	return out
}

// Transform returns the diagram mapped through t.
func (d *Diagram) Transform(t geom.Transform) *Diagram {
	out := &Diagram{}
	out.MergeTransformed(d, t)
	return out
}

// MergeTransformed appends other's contents mapped through t.
func (d *Diagram) MergeTransformed(other *Diagram, t geom.Transform) {
	d.Segs = slices.Grow(d.Segs, len(other.Segs))
	for _, s := range other.Segs {
		d.Segs = append(d.Segs, Seg{s.Layer, t.Apply(s.A), t.Apply(s.B)})
	}
	d.Dots = slices.Grow(d.Dots, len(other.Dots))
	for _, dot := range other.Dots {
		d.Dots = append(d.Dots, Dot{dot.Kind, t.Apply(dot.At)})
	}
	d.Pins = slices.Grow(d.Pins, len(other.Pins))
	for _, p := range other.Pins {
		d.Pins = append(d.Pins, Pin{p.Name, t.Apply(p.At)})
	}
}

// BBox returns the bounding box of the diagram's features.
func (d *Diagram) BBox() geom.Rect {
	var bb geom.Rect
	first := true
	add := func(p geom.Point) {
		if first {
			bb = geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
			first = false
			return
		}
		bb = geom.Rect{
			MinX: min(bb.MinX, p.X), MinY: min(bb.MinY, p.Y),
			MaxX: max(bb.MaxX, p.X), MaxY: max(bb.MaxY, p.Y),
		}
	}
	for _, s := range d.Segs {
		add(s.A)
		add(s.B)
	}
	for _, dot := range d.Dots {
		add(dot.At)
	}
	for _, p := range d.Pins {
		add(p.At)
	}
	return bb
}

// layerGlyph gives the ASCII style for each layer's sticks.
var layerGlyph = map[layer.Layer][2]byte{ // horizontal, vertical glyphs
	layer.Diff:  {'=', 'I'},
	layer.Poly:  {'-', '|'},
	layer.Metal: {'~', '!'},
}

var dotGlyph = map[string]byte{
	"contact": 'X',
	"buried":  'B',
	"enh":     'T',
	"dep":     'D',
}

// Render draws the diagram as ASCII art, one character per scale quanta.
// Later segments overdraw earlier ones; dots and pin markers overdraw
// segments.
func (d *Diagram) Render(scale geom.Coord) string {
	if scale <= 0 {
		scale = geom.Lambda
	}
	bb := d.BBox()
	if bb.W() == 0 && bb.H() == 0 && len(d.Segs) == 0 {
		return "(empty sticks diagram)\n"
	}
	w := int(bb.W()/scale) + 1
	h := int(bb.H()/scale) + 1
	// One row-major canvas, each row w glyphs plus a newline slot; row 0
	// is the top of the drawing.
	stride := w + 1
	canvas := bytes.Repeat([]byte{' '}, h*stride)
	px := func(p geom.Point) (int, int) {
		return int((p.X - bb.MinX) / scale), int((p.Y - bb.MinY) / scale)
	}
	set := func(x, y int, b byte) {
		if y >= 0 && y < h && x >= 0 && x < w {
			canvas[(h-1-y)*stride+x] = b
		}
	}
	// Deterministic draw order: by layer so metal overdraws poly overdraws
	// diff, and in insertion order within a layer (a stable sort by layer).
	var present [1 << 8]bool // layer.Layer is a uint8
	for _, s := range d.Segs {
		present[s.Layer] = true
	}
	for l, ok := range present {
		if !ok {
			continue
		}
		g, ok := layerGlyph[layer.Layer(l)]
		if !ok {
			g = [2]byte{'.', '.'}
		}
		for _, s := range d.Segs {
			if s.Layer != layer.Layer(l) {
				continue
			}
			ax, ay := px(s.A)
			bx, by := px(s.B)
			switch {
			case ay == by:
				for x := min(ax, bx); x <= max(ax, bx); x++ {
					set(x, ay, g[0])
				}
			case ax == bx:
				for y := min(ay, by); y <= max(ay, by); y++ {
					set(ax, y, g[1])
				}
			default: // non-Manhattan: draw endpoints only
				set(ax, ay, '?')
				set(bx, by, '?')
			}
		}
	}
	for _, dot := range d.Dots {
		g, ok := dotGlyph[dot.Kind]
		if !ok {
			g = '*'
		}
		x, y := px(dot.At)
		set(x, y, g)
	}
	for _, p := range d.Pins {
		x, y := px(p.At)
		set(x, y, 'o')
	}
	// Trim each row's trailing blanks in place. A trimmed row plus its
	// newline never outgrows its stride, so the write cursor never passes
	// the row being read.
	out := 0
	for r := 0; r < h; r++ {
		out += copy(canvas[out:], bytes.TrimRight(canvas[r*stride:r*stride+w], " "))
		canvas[out] = '\n'
		out++
	}
	canvas = canvas[:out]
	// Legend with pin names.
	if len(d.Pins) > 0 {
		pins := append([]Pin(nil), d.Pins...)
		sort.Slice(pins, func(i, j int) bool { return pins[i].Name < pins[j].Name })
		canvas = append(canvas, "pins:"...)
		for _, p := range pins {
			canvas = append(canvas, ' ')
			canvas = append(canvas, p.Name...)
			canvas = append(canvas, '(')
			canvas = strconv.AppendInt(canvas, int64(p.At.X), 10)
			canvas = append(canvas, ',')
			canvas = strconv.AppendInt(canvas, int64(p.At.Y), 10)
			canvas = append(canvas, ')')
		}
		canvas = append(canvas, '\n')
	}
	return string(canvas)
}
