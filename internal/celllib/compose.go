package celllib

import (
	"fmt"
	"slices"

	"bristleblocks/internal/cell"
	"bristleblocks/internal/geom"
	"bristleblocks/internal/layer"
	"bristleblocks/internal/logic"
	"bristleblocks/internal/sticks"
	"bristleblocks/internal/transistor"
)

// Composer assembles a new leaf cell by stamping proven sub-cells flat into
// it (geometry copied, not referenced, so the result stays stretchable)
// and drawing interconnect. Every stamp goes through StampLeaf, the one
// flat-stamping routine, its nets renamed by Rename as they are appended.
type Composer struct {
	c *cell.Cell
}

// NewComposer starts a composed cell with the given abutment box.
func NewComposer(name string, size geom.Rect) *Composer {
	c := cell.New(name, size)
	c.Sticks = &sticks.Diagram{}
	c.Netlist = &transistor.Netlist{}
	c.Logic = &logic.Diagram{}
	return &Composer{c: c}
}

// StampLeaf copies leaf cell sub flat into dst through t: its boxes,
// wires, polygons and labels into dst.Layout and its netlist into
// dst.Netlist, every net name passing through final. sub is only read, so
// one library leaf may be stamped by any number of compiles at once.
func StampLeaf(dst, sub *cell.Cell, t geom.Transform, final func(string) string) error {
	if !sub.Layout.IsLeaf() {
		return fmt.Errorf("compose: stamp %q is not a leaf", sub.Name)
	}
	lay := dst.Layout
	lay.Boxes = slices.Grow(lay.Boxes, len(sub.Layout.Boxes))
	for _, b := range sub.Layout.Boxes {
		lay.AddBox(b.Layer, t.ApplyRect(b.R))
	}
	for _, w := range sub.Layout.Wires {
		var buf [8]geom.Point
		pts := buf[:0]
		for _, p := range w.Path {
			pts = append(pts, t.Apply(p))
		}
		lay.AddWire(w.Layer, w.Width, pts...)
	}
	for _, p := range sub.Layout.Polys {
		if err := lay.AddPoly(p.Layer, p.Pts.Transform(t)); err != nil {
			return err
		}
	}
	for _, lb := range sub.Layout.Labels {
		lay.AddLabel(final(lb.Text), t.Apply(lb.At), lb.Layer)
	}
	if sub.Netlist != nil {
		dst.Netlist.MergeRenamed(sub.Netlist, final)
	}
	return nil
}

// Rename is the stamp naming rule: rename[net] when present, else
// prefix+"."+net, which keeps each stamp's internal nets distinct.
func Rename(prefix string, rename map[string]string) func(string) string {
	return func(net string) string {
		if n, ok := rename[net]; ok {
			return n
		}
		return prefix + "." + net
	}
}

// Stamp copies sub's layout (transformed by t) into the composed cell,
// renaming labels/nets: rename[oldNet] if present, else prefix+"."+oldNet.
// The sub-cell's netlist and sticks merge under the same renaming; its
// logic gates merge with internal nets prefixed.
func (k *Composer) Stamp(prefix string, sub *cell.Cell, t geom.Transform, rename map[string]string) error {
	final := Rename(prefix, rename)
	if err := StampLeaf(k.c, sub, t, final); err != nil {
		return err
	}
	if sub.Logic != nil {
		for _, g := range sub.Logic.Gates {
			in := append([]string(nil), g.Inputs...)
			for j, net := range in {
				if net != "0" && net != "1" {
					in[j] = final(net)
				}
			}
			k.c.Logic.Gates = append(k.c.Logic.Gates, logic.Gate{Kind: g.Kind, Inputs: in, Output: final(g.Output)})
		}
	}
	if sub.Sticks != nil {
		st := k.c.Sticks
		n := len(st.Pins)
		st.MergeTransformed(sub.Sticks, t)
		for i := n; i < len(st.Pins); i++ {
			st.Pins[i].Name = final(st.Pins[i].Name)
		}
	}
	k.c.PowerUA += sub.PowerUA
	return nil
}

// Box draws a raw box.
func (k *Composer) Box(l layer.Layer, r geom.Rect) { k.c.Layout.AddBox(l, r) }

// Wire draws an interconnect wire and mirrors it into the sticks diagram.
func (k *Composer) Wire(l layer.Layer, width geom.Coord, pts ...geom.Point) {
	k.c.Layout.AddWire(l, width, pts...)
	for i := 0; i+1 < len(pts); i++ {
		k.c.Sticks.AddSeg(l, pts[i], pts[i+1])
	}
}

// Contact draws a 2λ contact cut centered at p (the caller ensures both
// layers are present with surrounds) and a sticks contact dot.
func (k *Composer) Contact(p geom.Point) {
	k.c.Layout.AddBox(layer.Contact, geom.R(p.X-L(1), p.Y-L(1), p.X+L(1), p.Y+L(1)))
	k.c.Sticks.AddDot("contact", p)
}

// Label names a net at a point.
func (k *Composer) Label(net string, at geom.Point, l layer.Layer) {
	k.c.Layout.AddLabel(net, at, l)
}

// Bristle adds a connection point.
func (k *Composer) Bristle(b cell.Bristle) { k.c.AddBristle(b) }

// StretchY declares horizontal stretch lines.
func (k *Composer) StretchY(ys ...geom.Coord) {
	k.c.StretchY = append(k.c.StretchY, ys...)
}

// StretchX declares vertical stretch lines.
func (k *Composer) StretchX(xs ...geom.Coord) {
	k.c.StretchX = append(k.c.StretchX, xs...)
}

// Cell finalizes and returns the composed cell.
func (k *Composer) Cell() *cell.Cell { return k.c }
