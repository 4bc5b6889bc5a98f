// Package cif reads and writes Caltech Intermediate Form 2.0, the mask
// interchange format used at Caltech in the Bristle Blocks era. The writer
// emits the full cell hierarchy (children before parents) with exact
// rational scaling from the quarter-lambda grid to centimicrons; the parser
// reads the same dialect back, so layouts round-trip exactly.
package cif

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"bristleblocks/internal/geom"
	"bristleblocks/internal/layer"
	"bristleblocks/internal/mask"
)

// DefaultLambdaCentimicrons is the default physical lambda: 250 cµm = 2.5 µm,
// the typical late-1970s nMOS value.
const DefaultLambdaCentimicrons = 250

// orientOps maps each orientation to the CIF transform op string that
// reproduces it. CIF "M X" negates x (our geom.MY); "M Y" negates y (our
// geom.MX); "R a b" points the symbol's +x axis along (a,b). An orientation
// outside the table writes no op.
var orientOps = [...]string{
	geom.R0:   "",
	geom.R90:  " R 0 1",
	geom.R180: " R -1 0",
	geom.R270: " R 0 -1",
	geom.MX:   " M Y",
	geom.MY:   " M X",
	geom.MX90: " M Y R 0 1",
	geom.MY90: " M X R 0 1",
}

// Write emits the hierarchy rooted at top as a CIF 2.0 file. Coordinates are
// written in quarter-lambda quanta with a DS scale factor converting them to
// centimicrons using the given physical lambda.
func Write(w io.Writer, top *mask.Cell, lambdaCentimicrons int) error {
	buf, err := Append(nil, top, lambdaCentimicrons)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Append appends the CIF 2.0 text Write would emit for top to dst and
// returns the extended buffer. On error dst is returned unchanged.
func Append(dst []byte, top *mask.Cell, lambdaCentimicrons int) ([]byte, error) {
	if lambdaCentimicrons <= 0 {
		return dst, fmt.Errorf("cif: non-positive lambda %d", lambdaCentimicrons)
	}
	dst = fmt.Appendf(dst, "(Bristle Blocks CIF output; lambda = %d centimicrons);\n", lambdaCentimicrons)

	// Scale a/b: quanta -> centimicrons. Reduce the fraction.
	a, b := lambdaCentimicrons, int(geom.Lambda)
	g := gcd(a, b)
	a, b = a/g, b/g

	cells := top.CollectCells()
	num := make(map[*mask.Cell]int, len(cells))
	// Reserve about the output's size up front (a box, label or call
	// writes ~24 bytes, a coordinate pair ~10) so dst grows at most once.
	size := 0
	for i, c := range cells {
		num[c] = i + 1
		size += 32 + 24*(len(c.Boxes)+len(c.Labels)+len(c.Insts))
		for _, w := range c.Wires {
			size += 10 * (len(w.Path) + 1)
		}
		for _, p := range c.Polys {
			size += 10 * len(p.Pts)
		}
	}
	dst = slices.Grow(dst, size)
	for i, c := range cells {
		dst = appendCmd(dst, "DS", geom.Coord(i+1), geom.Coord(a), geom.Coord(b))
		dst = append(dst, "9 "...)
		dst = appendName(dst, c.Name)
		dst = append(dst, ";\n"...)
		dst = appendCellBody(dst, c, num)
		dst = append(dst, "DF;\n"...)
	}
	dst = appendCmd(dst, "C", geom.Coord(num[top]))
	return append(dst, "E\n"...), nil
}

func appendCellBody(dst []byte, c *mask.Cell, num map[*mask.Cell]int) []byte {
	cur := layer.NumLayers // sentinel: no layer selected yet
	setLayer := func(l layer.Layer) {
		if l != cur {
			dst = append(dst, "L "...)
			dst = append(dst, l.CIF()...)
			dst = append(dst, ";\n"...)
			cur = l
		}
	}
	for _, b := range c.Boxes {
		setLayer(b.Layer)
		r := b.R
		// CIF boxes are width height centerX centerY. Quanta resolution
		// (4/lambda) makes every half-lambda center integral, but a box
		// with an odd extent has no integral center, so it is emitted as a
		// polygon to stay exact.
		cx2, cy2 := r.MinX+r.MaxX, r.MinY+r.MaxY
		if cx2%2 == 0 && cy2%2 == 0 {
			dst = appendCmd(dst, "B", r.W(), r.H(), cx2/2, cy2/2)
		} else {
			dst = appendCmd(dst, "P", r.MinX, r.MinY, r.MaxX, r.MinY, r.MaxX, r.MaxY, r.MinX, r.MaxY)
		}
	}
	for _, wr := range c.Wires {
		setLayer(wr.Layer)
		dst = appendCoord(append(dst, 'W'), wr.Width)
		dst = appendPoints(dst, wr.Path)
	}
	for _, pg := range c.Polys {
		setLayer(pg.Layer)
		dst = append(dst, 'P')
		dst = appendPoints(dst, pg.Pts)
	}
	for _, lb := range c.Labels {
		dst = append(dst, "94 "...)
		dst = appendName(dst, lb.Text)
		dst = appendCoord(dst, lb.At.X)
		dst = appendCoord(dst, lb.At.Y)
		dst = append(dst, ' ')
		dst = append(dst, lb.Layer.CIF()...)
		dst = append(dst, ";\n"...)
	}
	for _, in := range c.Insts {
		dst = appendCoord(append(dst, 'C'), geom.Coord(num[in.Cell]))
		if int(in.T.Orient) < len(orientOps) {
			dst = append(dst, orientOps[in.T.Orient]...)
		}
		dst = appendCmd(dst, " T", in.T.Offset.X, in.T.Offset.Y)
	}
	return dst
}

// appendCmd appends "op v1 v2 ...;\n".
func appendCmd(dst []byte, op string, vs ...geom.Coord) []byte {
	dst = append(dst, op...)
	for _, v := range vs {
		dst = appendCoord(dst, v)
	}
	return append(dst, ";\n"...)
}

// appendPoints appends " x y" per point, then ";\n".
func appendPoints(dst []byte, pts []geom.Point) []byte {
	for _, p := range pts {
		dst = appendCoord(dst, p.X)
		dst = appendCoord(dst, p.Y)
	}
	return append(dst, ";\n"...)
}

// appendCoord appends a space and v in decimal.
func appendCoord(dst []byte, v geom.Coord) []byte {
	return strconv.AppendInt(append(dst, ' '), int64(v), 10)
}

// appendName appends s with spaces and semicolons (CIF separators) turned
// into underscores, or "unnamed" for an empty s. Invalid UTF-8 bytes become
// U+FFFD, as ranging over the string decodes them.
func appendName(dst []byte, s string) []byte {
	if s == "" {
		return append(dst, "unnamed"...)
	}
	for _, r := range s {
		if r == ' ' || r == ';' {
			r = '_'
		}
		dst = utf8.AppendRune(dst, r)
	}
	return dst
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// File is the result of parsing a CIF stream.
type File struct {
	// Top is the root cell (the last top-level call, or the last symbol
	// defined when the file has no top-level call).
	Top *mask.Cell
	// LambdaCentimicrons is the physical lambda recovered from the DS
	// scale factors (0 when indeterminate).
	LambdaCentimicrons int
	// Cells maps symbol numbers to cells.
	Cells map[int]*mask.Cell
}

type parseCall struct {
	sym int
	t   geom.Transform
}

type symbolDef struct {
	cell  *mask.Cell
	calls []parseCall
}

// Parse reads a CIF 2.0 stream produced by Write (plus reasonable
// hand-written CIF in the same dialect) and reconstructs the cell hierarchy.
func Parse(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	cmds, err := splitCommands(string(data))
	if err != nil {
		return nil, err
	}

	f := &File{Cells: make(map[int]*mask.Cell)}
	defs := make(map[int]*symbolDef)
	var cur *symbolDef
	var curNum int
	curLayer := layer.Layer(0)
	var topCalls []parseCall
	sawEnd := false

	for ci, cmd := range cmds {
		if sawEnd {
			return nil, fmt.Errorf("cif: command after E at #%d", ci)
		}
		fields := strings.Fields(cmd)
		if len(fields) == 0 {
			continue
		}
		op := fields[0]
		args := fields[1:]
		switch {
		case op == "DS":
			if cur != nil {
				return nil, fmt.Errorf("cif: nested DS at command #%d", ci)
			}
			if len(args) < 1 {
				return nil, fmt.Errorf("cif: DS missing symbol number")
			}
			n, err := strconv.Atoi(args[0])
			if err != nil {
				return nil, fmt.Errorf("cif: bad DS number %q", args[0])
			}
			a, b := 1, 1
			if len(args) >= 3 {
				if a, err = strconv.Atoi(args[1]); err != nil {
					return nil, fmt.Errorf("cif: bad DS scale %q", args[1])
				}
				if b, err = strconv.Atoi(args[2]); err != nil {
					return nil, fmt.Errorf("cif: bad DS scale %q", args[2])
				}
			}
			if b != 0 && a != 0 {
				// lambda = quanta-per-lambda * a / b centimicrons.
				f.LambdaCentimicrons = int(geom.Lambda) * a / b
			}
			cur = &symbolDef{cell: mask.NewCell(fmt.Sprintf("sym%d", n))}
			curNum = n
			defs[n] = cur
		case op == "DF":
			if cur == nil {
				return nil, fmt.Errorf("cif: DF outside DS at command #%d", ci)
			}
			f.Cells[curNum] = cur.cell
			cur = nil
		case op == "9":
			if cur != nil && len(args) > 0 {
				cur.cell.Name = args[0]
			}
		case op == "L":
			if len(args) != 1 {
				return nil, fmt.Errorf("cif: L wants one layer name")
			}
			l, ok := layer.ByCIF(args[0])
			if !ok {
				return nil, fmt.Errorf("cif: unknown layer %q", args[0])
			}
			curLayer = l
		case op == "B":
			if cur == nil {
				return nil, fmt.Errorf("cif: B outside DS")
			}
			ns, err := atoiAll(args)
			if err != nil || len(ns) < 4 {
				return nil, fmt.Errorf("cif: bad B command %q", cmd)
			}
			w, h, cx, cy := ns[0], ns[1], ns[2], ns[3]
			cur.cell.AddBox(curLayer, geom.R(
				geom.Coord(cx)-geom.Coord(w)/2, geom.Coord(cy)-geom.Coord(h)/2,
				geom.Coord(cx)+geom.Coord(w)-geom.Coord(w)/2, geom.Coord(cy)+geom.Coord(h)-geom.Coord(h)/2))
		case op == "W":
			if cur == nil {
				return nil, fmt.Errorf("cif: W outside DS")
			}
			ns, err := atoiAll(args)
			if err != nil || len(ns) < 3 || len(ns)%2 == 0 {
				return nil, fmt.Errorf("cif: bad W command %q", cmd)
			}
			width := geom.Coord(ns[0])
			pts := make([]geom.Point, 0, (len(ns)-1)/2)
			for i := 1; i+2 <= len(ns); i += 2 {
				pts = append(pts, geom.Pt(geom.Coord(ns[i]), geom.Coord(ns[i+1])))
			}
			cur.cell.AddWire(curLayer, width, pts...)
		case op == "P":
			if cur == nil {
				return nil, fmt.Errorf("cif: P outside DS")
			}
			ns, err := atoiAll(args)
			if err != nil || len(ns) < 8 || len(ns)%2 != 0 {
				return nil, fmt.Errorf("cif: bad P command %q", cmd)
			}
			pts := make(geom.Polygon, 0, len(ns)/2)
			for i := 0; i < len(ns); i += 2 {
				pts = append(pts, geom.Pt(geom.Coord(ns[i]), geom.Coord(ns[i+1])))
			}
			if err := cur.cell.AddPoly(curLayer, pts); err != nil {
				return nil, fmt.Errorf("cif: %w", err)
			}
		case op == "C":
			call, err := parseCallCmd(args)
			if err != nil {
				return nil, fmt.Errorf("cif: %w in %q", err, cmd)
			}
			if cur != nil {
				cur.calls = append(cur.calls, call)
			} else {
				topCalls = append(topCalls, call)
			}
		case op == "94":
			if cur == nil || len(args) < 3 {
				continue // tolerate stray labels
			}
			x, err1 := strconv.Atoi(args[1])
			y, err2 := strconv.Atoi(args[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("cif: bad 94 command %q", cmd)
			}
			lbLayer := curLayer
			if len(args) >= 4 {
				if l, ok := layer.ByCIF(args[3]); ok {
					lbLayer = l
				}
			}
			cur.cell.AddLabel(args[0], geom.Pt(geom.Coord(x), geom.Coord(y)), lbLayer)
		case op == "E":
			sawEnd = true
		case strings.HasPrefix(op, "("): // comment command
		default:
			// Unknown user extensions (0-9 prefixed) are skipped per spec.
			if _, err := strconv.Atoi(op); err == nil {
				continue
			}
			return nil, fmt.Errorf("cif: unknown command %q", cmd)
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("cif: unterminated DS %d", curNum)
	}

	// Link calls.
	link := func(c *mask.Cell, calls []parseCall) error {
		for _, cl := range calls {
			target, ok := f.Cells[cl.sym]
			if !ok {
				return fmt.Errorf("cif: call to undefined symbol %d", cl.sym)
			}
			c.Place(target, cl.t)
		}
		return nil
	}
	for n, d := range defs {
		if err := link(d.cell, d.calls); err != nil {
			return nil, fmt.Errorf("symbol %d: %w", n, err)
		}
	}
	switch {
	case len(topCalls) > 0:
		if len(topCalls) == 1 && topCalls[0].t == geom.Identity {
			f.Top = f.Cells[topCalls[0].sym]
		} else {
			top := mask.NewCell("cif_top")
			if err := link(top, topCalls); err != nil {
				return nil, err
			}
			f.Top = top
		}
	case len(defs) > 0:
		// No top-level call: pick the symbol not called by any other.
		called := make(map[int]bool)
		for _, d := range defs {
			for _, cl := range d.calls {
				called[cl.sym] = true
			}
		}
		best := -1
		for n := range defs {
			if !called[n] && n > best {
				best = n
			}
		}
		if best >= 0 {
			f.Top = f.Cells[best]
		}
	}
	if f.Top == nil {
		return nil, fmt.Errorf("cif: no top cell found")
	}
	return f, nil
}

func parseCallCmd(args []string) (parseCall, error) {
	if len(args) == 0 {
		return parseCall{}, fmt.Errorf("C missing symbol number")
	}
	sym, err := strconv.Atoi(args[0])
	if err != nil {
		return parseCall{}, fmt.Errorf("bad symbol number %q", args[0])
	}
	t := geom.Identity
	i := 1
	for i < len(args) {
		switch args[i] {
		case "T":
			if i+2 >= len(args) {
				return parseCall{}, fmt.Errorf("T needs two operands")
			}
			x, e1 := strconv.Atoi(args[i+1])
			y, e2 := strconv.Atoi(args[i+2])
			if e1 != nil || e2 != nil {
				return parseCall{}, fmt.Errorf("bad T operands")
			}
			t = t.Then(geom.Translate(geom.Coord(x), geom.Coord(y)))
			i += 3
		case "M":
			if i+1 >= len(args) {
				return parseCall{}, fmt.Errorf("M needs an axis")
			}
			switch args[i+1] {
			case "X":
				t = t.Then(geom.Transform{Orient: geom.MY}) // CIF M X negates x
			case "Y":
				t = t.Then(geom.Transform{Orient: geom.MX}) // CIF M Y negates y
			default:
				return parseCall{}, fmt.Errorf("bad mirror axis %q", args[i+1])
			}
			i += 2
		case "R":
			if i+2 >= len(args) {
				return parseCall{}, fmt.Errorf("R needs two operands")
			}
			a, e1 := strconv.Atoi(args[i+1])
			b, e2 := strconv.Atoi(args[i+2])
			if e1 != nil || e2 != nil {
				return parseCall{}, fmt.Errorf("bad R operands")
			}
			var o geom.Orient
			switch {
			case a > 0 && b == 0:
				o = geom.R0
			case a == 0 && b > 0:
				o = geom.R90
			case a < 0 && b == 0:
				o = geom.R180
			case a == 0 && b < 0:
				o = geom.R270
			default:
				return parseCall{}, fmt.Errorf("non-Manhattan rotation %d %d", a, b)
			}
			t = t.Then(geom.Transform{Orient: o})
			i += 3
		default:
			return parseCall{}, fmt.Errorf("unknown transform op %q", args[i])
		}
	}
	return parseCall{sym, t}, nil
}

func atoiAll(ss []string) ([]int, error) {
	out := make([]int, len(ss))
	for i, s := range ss {
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// splitCommands breaks a CIF stream into semicolon-terminated commands with
// parenthesized comments removed.
func splitCommands(s string) ([]string, error) {
	var cmds []string
	var cur strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '(':
			depth++
		case r == ')':
			if depth == 0 {
				return nil, fmt.Errorf("cif: unbalanced comment close")
			}
			depth--
		case depth > 0:
			// inside comment: drop
		case r == ';':
			cmds = append(cmds, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("cif: unterminated comment")
	}
	if tail := strings.TrimSpace(cur.String()); tail != "" {
		cmds = append(cmds, tail)
	}
	return cmds, nil
}
