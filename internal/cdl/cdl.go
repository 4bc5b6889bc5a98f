// Package cdl implements the "standard cell design language": the text
// format in which low-level cells are entered into libraries and "stored
// in disk files and read in as needed, to allow for the use of common cell
// libraries and sharing of data".
//
// A cell definition:
//
//	cell inv
//	size -24 -8 32 120
//	box diff 0 8 8 104
//	wire metal 16  0 0  160 0
//	label in -20 28 poly
//	bristle in W 28 poly 8 abut net=in
//	bristle ld N 36 poly 8 control net=ld guard="OP=1" phase=1
//	stretchy 16 40
//	stretchx 8
//	rail gnd 0 16
//	power 50
//	tx enh in gnd out
//	gate inv out in
//	doc a one-line description
//	endcell
//
// Coordinates are in quarter-lambda quanta, matching geom.Coord.
package cdl

import (
	"fmt"
	"strconv"
	"strings"

	"bristleblocks/internal/cell"
	"bristleblocks/internal/geom"
	"bristleblocks/internal/layer"
	"bristleblocks/internal/logic"
	"bristleblocks/internal/sticks"
	"bristleblocks/internal/transistor"
)

var sideByName = map[string]cell.Side{
	"N": cell.North, "E": cell.East, "S": cell.South, "W": cell.West,
}

var flavorByName = map[string]cell.Flavor{
	"bus": cell.BusTap, "control": cell.Control, "power": cell.Power,
	"ground": cell.Ground, "clock": cell.Clock, "pad": cell.PadReq,
	"abut": cell.Abut,
}

var gateKinds = map[string]logic.Kind{
	"inv": logic.Inv, "buf": logic.Buf, "nand": logic.Nand, "nor": logic.Nor,
	"and": logic.And, "or": logic.Or, "xor": logic.Xor, "latch": logic.Latch,
}

func layerByName(s string) (layer.Layer, bool) {
	for _, l := range layer.All() {
		if l.Name() == s {
			return l, true
		}
	}
	return 0, false
}

// Parse reads one or more cell definitions from CDL text.
func Parse(src string) ([]*cell.Cell, error) {
	var out []*cell.Cell
	var cur *cell.Cell
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		toks, err := SplitQuoted(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		if len(toks) == 0 {
			// e.g. a line holding only an empty quoted string
			return nil, fmt.Errorf("line %d: no directive", lineNo+1)
		}
		if toks[0] == "cell" {
			if cur != nil {
				return nil, fmt.Errorf("line %d: nested cell", lineNo+1)
			}
			if len(toks) != 2 {
				return nil, fmt.Errorf("line %d: cell wants a name", lineNo+1)
			}
			cur = cell.New(toks[1], geom.Rect{})
			cur.Sticks = &sticks.Diagram{}
			cur.Netlist = &transistor.Netlist{}
			cur.Logic = &logic.Diagram{}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("line %d: %q outside a cell", lineNo+1, toks[0])
		}
		if toks[0] == "endcell" {
			if cur.Size.Empty() {
				return nil, fmt.Errorf("line %d: cell %s has no size", lineNo+1, cur.Name)
			}
			if err := cur.Validate(); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
			}
			out = append(out, cur)
			cur = nil
			continue
		}
		if err := applyCellLine(cur, toks); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("unterminated cell %s", cur.Name)
	}
	return out, nil
}

func applyCellLine(c *cell.Cell, toks []string) error {
	switch toks[0] {
	case "size":
		ns, err := coords(toks[1:], 4)
		if err != nil {
			return err
		}
		c.Size = geom.R(ns[0], ns[1], ns[2], ns[3])
	case "box":
		l, ok := layerByName(tok(toks, 1))
		if !ok {
			return fmt.Errorf("unknown layer %q", tok(toks, 1))
		}
		ns, err := coords(toks[2:], 4)
		if err != nil {
			return err
		}
		c.Layout.AddBox(l, geom.R(ns[0], ns[1], ns[2], ns[3]))
	case "wire":
		l, ok := layerByName(tok(toks, 1))
		if !ok {
			return fmt.Errorf("unknown layer %q", tok(toks, 1))
		}
		if len(toks) < 7 || (len(toks)-3)%2 != 0 {
			return fmt.Errorf("wire wants LAYER WIDTH x y x y ...")
		}
		w, err := coord(toks[2])
		if err != nil {
			return err
		}
		ns, err := coords(toks[3:], len(toks)-3)
		if err != nil {
			return err
		}
		pts := make([]geom.Point, 0, len(ns)/2)
		for i := 0; i < len(ns); i += 2 {
			pts = append(pts, geom.Pt(ns[i], ns[i+1]))
		}
		c.Layout.AddWire(l, w, pts...)
	case "label":
		if len(toks) != 5 {
			return fmt.Errorf("label wants TEXT x y LAYER")
		}
		l, ok := layerByName(toks[4])
		if !ok {
			return fmt.Errorf("unknown layer %q", toks[4])
		}
		ns, err := coords(toks[2:4], 2)
		if err != nil {
			return err
		}
		c.Layout.AddLabel(toks[1], geom.Pt(ns[0], ns[1]), l)
	case "bristle":
		if len(toks) < 7 {
			return fmt.Errorf("bristle wants NAME SIDE offset LAYER width FLAVOR [k=v...]")
		}
		side, ok := sideByName[toks[2]]
		if !ok {
			return fmt.Errorf("unknown side %q", toks[2])
		}
		l, ok := layerByName(toks[4])
		if !ok {
			return fmt.Errorf("unknown layer %q", toks[4])
		}
		fl, ok := flavorByName[toks[6]]
		if !ok {
			return fmt.Errorf("unknown flavor %q", toks[6])
		}
		off, err := coord(toks[3])
		if err != nil {
			return err
		}
		w, err := coord(toks[5])
		if err != nil {
			return err
		}
		b := cell.Bristle{Name: toks[1], Side: side, Offset: off, Layer: l, Width: w, Flavor: fl}
		for _, kv := range toks[7:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bristle option %q is not key=value", kv)
			}
			switch k {
			case "net":
				b.Net = v
			case "guard":
				b.Guard = v
			case "phase":
				p, err := strconv.Atoi(v)
				if err != nil {
					return fmt.Errorf("bad phase %q", v)
				}
				b.Phase = p
			case "class":
				b.PadClass = v
			default:
				return fmt.Errorf("unknown bristle option %q", k)
			}
		}
		c.AddBristle(b)
	case "stretchy":
		ns, err := coords(toks[1:], len(toks)-1)
		if err != nil {
			return err
		}
		c.StretchY = append(c.StretchY, ns...)
	case "stretchx":
		ns, err := coords(toks[1:], len(toks)-1)
		if err != nil {
			return err
		}
		c.StretchX = append(c.StretchX, ns...)
	case "rail":
		if len(toks) != 4 {
			return fmt.Errorf("rail wants NET y width")
		}
		y, err1 := coord(toks[2])
		w, err2 := coord(toks[3])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad rail numbers")
		}
		c.Rails = append(c.Rails, cell.PowerRail{Net: toks[1], Y: y, Width: w})
	case "power":
		n, err := strconv.Atoi(tok(toks, 1))
		if err != nil {
			return fmt.Errorf("bad power %q", tok(toks, 1))
		}
		c.PowerUA = n
	case "lambda":
		n, err := strconv.Atoi(tok(toks, 1))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad lambda %q", tok(toks, 1))
		}
		c.LambdaCentimicrons = n
	case "tx":
		if len(toks) != 5 {
			return fmt.Errorf("tx wants enh|dep GATE SRC DRN")
		}
		switch toks[1] {
		case "enh":
			c.Netlist.AddEnh(toks[2], toks[3], toks[4], 0, 0)
		case "dep":
			c.Netlist.AddDep(toks[2], toks[3], toks[4], 0, 0)
		default:
			return fmt.Errorf("unknown transistor kind %q", toks[1])
		}
	case "gate":
		if len(toks) < 4 {
			return fmt.Errorf("gate wants KIND OUT IN...")
		}
		k, ok := gateKinds[toks[1]]
		if !ok {
			return fmt.Errorf("unknown gate kind %q", toks[1])
		}
		c.Logic.AddGate(k, toks[2], toks[3:]...)
	case "doc":
		c.Doc = strings.Join(toks[1:], " ")
	case "simnote":
		c.SimNote = strings.Join(toks[1:], " ")
	case "blocklabel":
		if len(toks) >= 2 {
			c.BlockLabel = toks[1]
		}
		if len(toks) >= 3 {
			c.BlockClass = toks[2]
		}
	default:
		return fmt.Errorf("unknown cell directive %q", toks[0])
	}
	return nil
}

func tok(toks []string, i int) string {
	if i < len(toks) {
		return toks[i]
	}
	return ""
}

func coord(s string) (geom.Coord, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad coordinate %q", s)
	}
	return geom.Coord(n), nil
}

func coords(ss []string, want int) ([]geom.Coord, error) {
	if len(ss) < want || want <= 0 {
		return nil, fmt.Errorf("want %d coordinates, have %d", want, len(ss))
	}
	out := make([]geom.Coord, want)
	for i := 0; i < want; i++ {
		c, err := coord(ss[i])
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// SplitQuoted splits a line on spaces and tabs, honoring double quotes,
// which it strips. It is the tokenizer of both text languages, CDL and
// the chip description (internal/desc).
func SplitQuoted(line string) ([]string, error) {
	var toks []string
	var cur strings.Builder
	inQ := false
	for _, r := range line {
		switch {
		case r == '"':
			inQ = !inQ
		case (r == ' ' || r == '\t') && !inQ:
			if cur.Len() > 0 {
				toks = append(toks, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteRune(r)
		}
	}
	if inQ {
		return nil, fmt.Errorf("unterminated quote")
	}
	if cur.Len() > 0 {
		toks = append(toks, cur.String())
	}
	return toks, nil
}

// Format writes a cell back to CDL text (wires in the layout are kept as
// wires; polygons are not emitted — library cells are box/wire based).
func Format(c *cell.Cell) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cell %s\n", c.Name)
	fmt.Fprintf(&sb, "size %d %d %d %d\n", c.Size.MinX, c.Size.MinY, c.Size.MaxX, c.Size.MaxY)
	for _, b := range c.Layout.Boxes {
		fmt.Fprintf(&sb, "box %s %d %d %d %d\n", b.Layer.Name(), b.R.MinX, b.R.MinY, b.R.MaxX, b.R.MaxY)
	}
	for _, w := range c.Layout.Wires {
		fmt.Fprintf(&sb, "wire %s %d", w.Layer.Name(), w.Width)
		for _, p := range w.Path {
			fmt.Fprintf(&sb, " %d %d", p.X, p.Y)
		}
		sb.WriteByte('\n')
	}
	for _, lb := range c.Layout.Labels {
		fmt.Fprintf(&sb, "label %s %d %d %s\n", lb.Text, lb.At.X, lb.At.Y, lb.Layer.Name())
	}
	for _, b := range c.Bristles {
		fmt.Fprintf(&sb, "bristle %s %s %d %s %d %s", b.Name, b.Side, b.Offset, b.Layer.Name(), b.Width, b.Flavor)
		if b.Net != "" {
			fmt.Fprintf(&sb, " net=%s", b.Net)
		}
		if b.Guard != "" {
			fmt.Fprintf(&sb, " guard=%q", b.Guard)
		}
		if b.Phase != 0 {
			fmt.Fprintf(&sb, " phase=%d", b.Phase)
		}
		if b.PadClass != "" {
			fmt.Fprintf(&sb, " class=%s", b.PadClass)
		}
		sb.WriteByte('\n')
	}
	if len(c.StretchY) > 0 {
		fmt.Fprintf(&sb, "stretchy")
		for _, y := range c.StretchY {
			fmt.Fprintf(&sb, " %d", y)
		}
		sb.WriteByte('\n')
	}
	if len(c.StretchX) > 0 {
		fmt.Fprintf(&sb, "stretchx")
		for _, x := range c.StretchX {
			fmt.Fprintf(&sb, " %d", x)
		}
		sb.WriteByte('\n')
	}
	for _, r := range c.Rails {
		fmt.Fprintf(&sb, "rail %s %d %d\n", r.Net, r.Y, r.Width)
	}
	if c.PowerUA != 0 {
		fmt.Fprintf(&sb, "power %d\n", c.PowerUA)
	}
	if c.LambdaCentimicrons != 0 {
		fmt.Fprintf(&sb, "lambda %d\n", c.LambdaCentimicrons)
	}
	if c.Netlist != nil {
		for _, t := range c.Netlist.Txs {
			fmt.Fprintf(&sb, "tx %s %s %s %s\n", t.Kind, t.Gate, t.Source, t.Drain)
		}
	}
	if c.Logic != nil {
		for _, g := range c.Logic.Gates {
			fmt.Fprintf(&sb, "gate %s %s %s\n", strings.ToLower(g.Kind.String()), g.Output, strings.Join(g.Inputs, " "))
		}
	}
	if c.Doc != "" {
		fmt.Fprintf(&sb, "doc %s\n", c.Doc)
	}
	if c.SimNote != "" {
		fmt.Fprintf(&sb, "simnote %s\n", c.SimNote)
	}
	if c.BlockLabel != "" {
		fmt.Fprintf(&sb, "blocklabel %s %s\n", c.BlockLabel, c.BlockClass)
	}
	fmt.Fprintf(&sb, "endcell\n")
	return sb.String()
}
