package decoder

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"bristleblocks/internal/cell"
	"bristleblocks/internal/celllib"
	"bristleblocks/internal/geom"
	"bristleblocks/internal/layer"
	"bristleblocks/internal/mask"
	"bristleblocks/internal/sticks"
	"bristleblocks/internal/tm"
	"bristleblocks/internal/transistor"
)

// PLA geometry constants, in lambda. The decoder is an nMOS NOR-NOR PLA:
// vertical poly literal lines (true + complement per used microcode bit)
// cross horizontal precharge-free term rows in the AND plane; term lines
// convert to poly at the plane boundary and gate pulldowns on vertical
// metal output columns in the OR plane. Shared-gate depletion pullups sit
// at the left (terms) and top (outputs).
const (
	plaRowPitch = 18 // vertical pitch of term rows
	andColPitch = 14 // horizontal pitch per literal line
	orColPitch  = 24 // horizontal pitch per output column (fits a control buffer below)

	// Left-edge structure: VDD rail, pullup strips, shared gate, gnd strap.
	vddRailW   = 4
	pullupLen  = 19
	gndStrapX  = 22 // vertical diffusion ground strap (4λ wide)
	andFirstCX = 36 // center of the first literal line

	chanTrackPitch = 8 // control-channel metal track pitch
)

func l(n int) geom.Coord { return geom.L(n) }

// plaGeom captures the computed positions of a decoder layout.
type plaGeom struct {
	nIn, nTerm, nOut int

	chanH   geom.Coord // control channel height (bottom of cell to buffer row)
	bufY    geom.Coord // buffer row bottom
	planesY geom.Coord // OR/AND plane bottom (first row's base)
	topY    geom.Coord // top of the term rows
	driverY geom.Coord // driver row bottom
	height  geom.Coord

	andRight geom.Coord // right edge of the AND plane columns
	orLeft   geom.Coord // x of the boundary tile
	width    geom.Coord

	colX func(i int) geom.Coord // literal column centers (0..2*nIn-1)
	rowY func(r int) geom.Coord // term row centers
	outX func(k int) geom.Coord // output column centers
}

func computeGeom(nIn, nTerm, nOut, nChanTracks int) *plaGeom {
	g := &plaGeom{nIn: nIn, nTerm: nTerm, nOut: nOut}
	g.chanH = geom.Coord(nChanTracks)*l(chanTrackPitch) + l(8)
	g.bufY = g.chanH
	g.planesY = g.bufY + l(celllib.CtlBufHeight) + l(6)
	g.topY = g.planesY + geom.Coord(nTerm)*l(plaRowPitch) + l(8)
	g.driverY = g.topY + l(10)
	g.height = g.driverY + l(36)

	g.andRight = l(andFirstCX) + geom.Coord(2*nIn-1)*l(andColPitch) + l(7)
	g.orLeft = g.andRight + l(4)
	orStart := g.orLeft + l(12)
	g.width = orStart + geom.Coord(nOut)*l(orColPitch) + l(14)

	g.colX = func(i int) geom.Coord { return l(andFirstCX) + geom.Coord(i)*l(andColPitch) }
	g.rowY = func(r int) geom.Coord { return g.planesY + geom.Coord(r)*l(plaRowPitch) + l(11) }
	g.outX = func(k int) geom.Coord { return orStart + geom.Coord(k)*l(orColPitch) + l(10) }
	return g
}

// Layout is the generated decoder: the cell (layout + bristles), the
// positions of its south-edge control lines, and bookkeeping for tests.
type Layout struct {
	Cell *cell.Cell
	// CtlX maps each control name to the x offset of its poly line on the
	// decoder's south edge.
	CtlX map[string]geom.Coord
	// MicroX maps microcode bit index to the x offset of its input line on
	// the north edge.
	MicroX map[int]geom.Coord
	// TMSteps is how many steps the two-tape Turing machine ran.
	TMSteps int
}

// buildLayout turns the silicon-code op stream into mask geometry. ctlX
// gives the core's desired control-line x offsets; the control channel at
// the bottom of the decoder routes each buffer output to its core position.
func buildLayout(a *Array, ops []tm.Symbol, steps int, ctlX map[string]geom.Coord, clockX map[string][]geom.Coord) (*Layout, error) {
	grid, err := parseOps(ops)
	if err != nil {
		return nil, err
	}
	inputs := a.UsedInputs()
	nIn, nOut := len(inputs), len(a.Controls)
	nTerm := len(grid.rows)
	if nTerm > 0 && (grid.andWidth != nIn || grid.orWidth != nOut) {
		return nil, fmt.Errorf("decoder: op grid %dx%d does not match array %dx%d",
			grid.andWidth, grid.orWidth, nIn, nOut)
	}

	// Channel tracks: one per control plus two clock tracks.
	g := computeGeom(nIn, nTerm, nOut, nOut+2)
	c := cell.New("decoder", geom.R(0, 0, g.width, g.height))
	c.Sticks = &sticks.Diagram{}
	c.Netlist = &transistor.Netlist{}
	lay := c.Layout

	// Net names, formatted once each: term rows, literal columns (true,
	// then complement, per used input) and output columns.
	terms := make([]string, nTerm)
	for r := range terms {
		terms[r] = "t" + strconv.Itoa(r)
	}
	lits := make([]string, 0, 2*nIn)
	for _, bit := range inputs {
		lits = append(lits, "u"+strconv.Itoa(bit), "nu"+strconv.Itoa(bit))
	}
	outs := make([]string, nOut)
	for k, sp := range a.Controls {
		outs[k] = "plaout." + sp.Name
	}

	// ---- Term rows: term metal line, pullup strip, AND gnd rail (metal),
	// OR gnd rail (diff), boundary tile, OR-plane term poly.
	for r := 0; r < nTerm; r++ {
		cy := g.rowY(r)
		// Pullup strip from the VDD rail to the term line.
		lay.AddBox(layer.Diff, geom.R(0, cy-l(2), l(pullupLen), cy+l(2)))
		lay.AddBox(layer.Contact, geom.R(l(1), cy-l(1), l(3), cy+l(1)))
		lay.AddBox(layer.Contact, geom.R(l(16), cy-l(1), l(18), cy+l(1)))
		c.Netlist.AddDep("vdd", terms[r], "vdd", l(2), l(2))
		// Term metal from the pullup to the boundary tile.
		lay.AddBox(layer.Metal, geom.R(l(15), cy-l(2), g.orLeft+l(4), cy+l(2)))
		lay.AddLabel(terms[r], geom.Pt(l(30), cy), layer.Metal)
		c.Sticks.AddSeg(layer.Metal, geom.Pt(l(15), cy), geom.Pt(g.orLeft, cy))
		// AND-plane ground rail (metal) with a contact to the gnd strap.
		lay.AddBox(layer.Metal, geom.R(l(gndStrapX-2), cy-l(9), g.andRight, cy-l(5)))
		lay.AddBox(layer.Contact, geom.R(l(gndStrapX+1), cy-l(8), l(gndStrapX+3), cy-l(6)))
		// Boundary tile: term metal -> term poly.
		bx := g.orLeft
		lay.AddBox(layer.Poly, geom.R(bx, cy-l(2), bx+l(4), cy+l(2)))
		lay.AddBox(layer.Contact, geom.R(bx+l(1), cy-l(1), bx+l(3), cy+l(1)))
		// OR-plane term poly line.
		lay.AddBox(layer.Poly, geom.R(bx+l(2), cy-l(1), g.outX(nOut-1)+l(4), cy+l(1)))
		// OR-plane ground rail in diffusion, joined to the right strap.
		lay.AddBox(layer.Diff, geom.R(bx+l(8), cy-l(8), g.width-l(2), cy-l(6)))
	}
	if nTerm > 0 {
		// Right-edge vertical ground strap (diffusion) collecting the OR
		// rails, with a metal head at the top for the assembly strap.
		lay.AddBox(layer.Diff, geom.R(g.width-l(6), g.planesY, g.width-l(2), g.topY-l(4)))
		lay.AddBox(layer.Diff, geom.R(g.width-l(7), g.topY-l(4), g.width-l(1), g.topY))
		lay.AddBox(layer.Contact, geom.R(g.width-l(5), g.topY-l(3), g.width-l(3), g.topY-l(1)))
		lay.AddBox(layer.Metal, geom.R(g.width-l(7), g.topY-l(4), g.width, g.topY))
		lay.AddLabel("gnd", geom.Pt(g.width-l(4), g.planesY+l(1)), layer.Diff)

	}

	// ---- Left VDD structure: vertical metal rail, shared depletion gate
	// line with implant, tie contact above the top row.
	if nTerm > 0 {
		railTop := g.rowY(nTerm-1) + l(10)
		lay.AddBox(layer.Metal, geom.R(0, g.planesY, l(vddRailW), railTop))
		lay.AddLabel("vdd", geom.Pt(l(1), g.planesY+l(1)), layer.Metal)

		lay.AddBox(layer.Poly, geom.R(l(9), g.rowY(0)-l(4), l(11), railTop))
		lay.AddBox(layer.Implant, geom.R(l(7), g.rowY(0)-l(4), l(13), g.rowY(nTerm-1)+l(4)))
		// Tie the shared gate to VDD.
		tieY := railTop - l(5)
		lay.AddBox(layer.Poly, geom.R(0, tieY, l(11), tieY+l(4)))
		lay.AddBox(layer.Contact, geom.R(l(1), tieY+l(1), l(3), tieY+l(3)))
		// Vertical diffusion ground strap through the AND plane, with a
		// metal head at the bottom reaching the west edge for power
		// wiring.
		lay.AddBox(layer.Diff, geom.R(l(gndStrapX), g.planesY, l(gndStrapX+4), g.topY))
		lay.AddBox(layer.Diff, geom.R(l(gndStrapX-1), g.planesY, l(gndStrapX+3), g.planesY+l(4)))
		lay.AddBox(layer.Contact, geom.R(l(gndStrapX), g.planesY+l(1), l(gndStrapX+2), g.planesY+l(3)))
		// Metal drop from the strap head to the buffer-row ground rail
		// (below every term line, so no metal crossings).
		lay.AddBox(layer.Metal, geom.R(l(gndStrapX-1), g.bufY, l(gndStrapX+5), g.planesY+l(4)))
		lay.AddLabel("gnd", geom.Pt(l(gndStrapX+1), g.planesY+l(1)), layer.Diff)
	}

	// ---- Literal lines and AND-plane crosspoints.
	if nTerm > 0 {
		for i := 0; i < 2*nIn; i++ {
			cx := g.colX(i)
			lay.AddBox(layer.Poly, geom.R(cx-l(1), g.planesY, cx+l(1), g.driverY+l(2)))
			lay.AddLabel(lits[i], geom.Pt(cx, g.planesY+l(1)), layer.Poly)
			c.Sticks.AddSeg(layer.Poly, geom.Pt(cx, g.planesY), geom.Pt(cx, g.driverY))
		}
	}
	for r, row := range grid.rows {
		cy := g.rowY(r)
		for i := 0; i < nIn; i++ {
			var col int
			switch row[i] {
			case OpAnd1:
				col = 2*i + 1 // literal true: pulldown gated by the complement
			case OpAnd0:
				col = 2 * i // literal false: pulldown gated by the true line
			default:
				continue
			}
			cx := g.colX(col)
			drawAndTx(lay, cx, cy)
			c.Netlist.AddEnh(lits[col], terms[r], "gnd", l(2), l(2))
			c.Sticks.AddDot("enh", geom.Pt(cx-l(5), cy-l(3)))
		}
		for k := 0; k < nOut; k++ {
			if row[nIn+k] != OpOr1 {
				continue
			}
			ox := g.outX(k)
			drawOrTx(lay, ox, cy)
			c.Netlist.AddEnh(terms[r], outs[k], "gnd", l(2), l(2))
			c.Sticks.AddDot("enh", geom.Pt(ox, cy))
		}
	}

	// ---- Output columns, their pullups, and the top VDD rail.
	topRail := g.topY + l(4)
	lay.AddBox(layer.Metal, geom.R(g.orLeft+l(8), topRail, g.width, topRail+l(4)))
	lay.AddLabel("vdd", geom.Pt(g.width-l(2), topRail+l(2)), layer.Metal)
	c.AddBristle(cell.Bristle{Name: "or.vdd", Side: cell.East, Offset: topRail + l(2), Layer: layer.Metal, Width: l(4), Flavor: cell.Power, Net: "vdd"})
	// Corner drop joining the top rail to the driver row's vdd rail above.
	lay.AddBox(layer.Metal, geom.R(g.width-l(4), topRail, g.width, g.driverY+l(32)))
	lay.AddBox(layer.Metal, geom.R(l(4), g.driverY+l(28), g.width, g.driverY+l(32)))
	// Shared depletion gate for output pullups, tied to the top rail.
	gateY := g.topY
	if nOut > 0 {
		lay.AddBox(layer.Poly, geom.R(g.outX(0)-l(6), gateY, g.outX(nOut-1)+l(6), gateY+l(2)))
		lay.AddBox(layer.Implant, geom.R(g.outX(0)-l(6), gateY-l(2), g.outX(nOut-1)+l(6), gateY+l(4)))
		tieX := g.outX(nOut-1) + l(6)
		lay.AddBox(layer.Poly, geom.R(tieX-l(4), gateY, tieX, topRail+l(4)))
		lay.AddBox(layer.Contact, geom.R(tieX-l(3), topRail+l(1), tieX-l(1), topRail+l(3)))
	}
	for k := 0; k < nOut; k++ {
		ox := g.outX(k)
		// Column metal from the buffer row to just under the pullup head.
		lay.AddBox(layer.Metal, geom.R(ox-l(2), g.bufY+l(celllib.CtlBufHeight), ox+l(2), g.topY-l(2)))
		lay.AddLabel(outs[k], geom.Pt(ox, g.planesY-l(1)), layer.Metal)
		c.Sticks.AddSeg(layer.Metal, geom.Pt(ox, g.bufY+l(celllib.CtlBufHeight)), geom.Pt(ox, g.topY-l(2)))
		// Pullup: diffusion from a contact on the column top, through the
		// shared depletion gate, to a contact on the top rail.
		lay.AddBox(layer.Diff, geom.R(ox-l(2), g.topY-l(6), ox+l(2), g.topY-l(2)))
		lay.AddBox(layer.Contact, geom.R(ox-l(1), g.topY-l(5), ox+l(1), g.topY-l(3)))
		lay.AddBox(layer.Diff, geom.R(ox-l(1), g.topY-l(2), ox+l(1), topRail))
		lay.AddBox(layer.Diff, geom.R(ox-l(2), topRail, ox+l(2), topRail+l(4)))
		lay.AddBox(layer.Contact, geom.R(ox-l(1), topRail+l(1), ox+l(1), topRail+l(3)))
		c.Netlist.AddDep("vdd", outs[k], "vdd", l(2), l(2))
	}

	// The implementation continues in buildLayoutLower (buffer row, driver
	// row, channel): split for readability.
	lo, err := buildLayoutLower(a, c, g, inputs, lits, outs, ctlX, clockX)
	if err != nil {
		return nil, err
	}
	lo.TMSteps = steps
	return lo, nil
}

// drawAndTx draws one AND-plane crosspoint pulldown at literal column cx,
// term row cy: a vertical diffusion stub from the ground rail to a contact
// on the term line, gated by a poly finger from the literal line.
func drawAndTx(lay *mask.Cell, cx, cy geom.Coord) {
	lay.AddBox(layer.Diff, geom.R(cx-l(7), cy-l(2), cx-l(3), cy+l(2))) // top head
	lay.AddBox(layer.Contact, geom.R(cx-l(6), cy-l(1), cx-l(4), cy+l(1)))
	lay.AddBox(layer.Diff, geom.R(cx-l(6), cy-l(5), cx-l(4), cy-l(2))) // channel stub
	lay.AddBox(layer.Diff, geom.R(cx-l(7), cy-l(9), cx-l(3), cy-l(5))) // bottom head
	lay.AddBox(layer.Contact, geom.R(cx-l(6), cy-l(8), cx-l(4), cy-l(6)))
	lay.AddBox(layer.Poly, geom.R(cx-l(8), cy-l(4), cx+l(1), cy-l(2))) // gate finger
}

// drawOrTx draws one OR-plane crosspoint pulldown at output column ox,
// term row cy: a vertical diffusion stub from the (diffusion) ground rail
// to a contact on the output column, gated by the term poly line.
func drawOrTx(lay *mask.Cell, ox, cy geom.Coord) {
	lay.AddBox(layer.Diff, geom.R(ox-l(1), cy-l(6), ox+l(1), cy+l(2))) // stub into the gnd rail
	lay.AddBox(layer.Diff, geom.R(ox-l(2), cy+l(2), ox+l(2), cy+l(6))) // head
	lay.AddBox(layer.Contact, geom.R(ox-l(1), cy+l(3), ox+l(1), cy+l(5)))
}

// buildLayoutLower adds the input driver row, the control buffer row, and
// the control channel, then finalizes bristles.
func buildLayoutLower(a *Array, c *cell.Cell, g *plaGeom, inputs []int, lits, outs []string, ctlX map[string]geom.Coord, clockX map[string][]geom.Coord) (*Layout, error) {
	bufs, err := bufTemplates()
	if err != nil {
		return nil, err
	}
	lay := c.Layout
	out := &Layout{Cell: c, CtlX: make(map[string]geom.Coord), MicroX: make(map[int]geom.Coord)}

	// ---- Driver row: per input bit, the true line runs straight up to
	// the north edge; an inverter derives the complement line.
	base := g.driverY
	if len(inputs) > 0 {
		rowRight := g.colX(2*len(inputs)-1) + l(7)
		// The gnd rail starts east of the PLA VDD column so the vdd rail
		// can extend to x=0 and join that column below.
		lay.AddBox(layer.Metal, geom.R(l(8), base, rowRight, base+l(4)))     // gnd rail
		lay.AddBox(layer.Metal, geom.R(0, base+l(28), rowRight, base+l(32))) // vdd rail
		lay.AddLabel("gnd", geom.Pt(l(9), base+l(2)), layer.Metal)
		lay.AddLabel("vdd", geom.Pt(l(1), base+l(30)), layer.Metal)
		// Internal hookups: the AND-plane ground strap rises to a contact
		// on the driver gnd rail; the PLA VDD column rises to the driver
		// vdd rail.
		lay.AddBox(layer.Diff, geom.R(l(gndStrapX), g.topY, l(gndStrapX+4), base+l(4)))
		lay.AddBox(layer.Diff, geom.R(l(gndStrapX-1), base, l(gndStrapX+5), base+l(4)))
		lay.AddBox(layer.Contact, geom.R(l(gndStrapX+1), base+l(1), l(gndStrapX+3), base+l(3)))
		lay.AddBox(layer.Metal, geom.R(0, g.planesY, l(vddRailW), base+l(32)))
	}
	for i, bit := range inputs {
		ct := g.colX(2 * i)   // true column
		cc := g.colX(2*i + 1) // complement column
		// True line continues to the north edge.
		lay.AddBox(layer.Poly, geom.R(ct-l(1), base, ct+l(1), g.height))
		net, nu := lits[2*i], lits[2*i+1]
		lay.AddLabel(net, geom.Pt(ct, g.height-l(1)), layer.Poly)
		out.MicroX[bit] = ct
		c.AddBristle(cell.Bristle{
			Name: "micro" + strconv.Itoa(bit), Side: cell.North, Offset: ct,
			Layer: layer.Poly, Width: l(2), Flavor: cell.PadReq,
			Net: net, PadClass: "input",
		})

		// Inverter between the columns: input from the true line, output
		// to the complement line.
		err := celllib.StampLeaf(c, driverTemplate(), geom.Translate(ct+l(9), base+l(2)), celllib.Rename("drv"+strconv.Itoa(bit), map[string]string{
			"in": net, "out": nu, "gnd": "gnd", "vdd": "vdd",
		}))
		if err != nil {
			return nil, err
		}
		// The inverter's input poly spans [ct+3, ct+13] at base+8..10; a
		// short branch reaches the true line.
		lay.AddBox(layer.Poly, geom.R(ct-l(1), base+l(8), ct+l(3), base+l(10)))
		// Complement: poly pad + contact on the inverter output metal,
		// descent east of the stamp, jog back to the column.
		lay.AddBox(layer.Poly, geom.R(cc-l(2), base+l(14), cc+l(2), base+l(18)))
		lay.AddBox(layer.Contact, geom.R(cc-l(1), base+l(15), cc+l(1), base+l(17)))
		lay.AddWire(layer.Poly, l(2),
			geom.Pt(cc+l(4), base+l(15)),
			geom.Pt(cc+l(4), base-l(6)),
			geom.Pt(cc, base-l(6)),
			geom.Pt(cc, base+l(1)))
		// Connect pad to the descent.
		lay.AddWire(layer.Poly, l(2), geom.Pt(cc+l(1), base+l(15)), geom.Pt(cc+l(4), base+l(15)))
	}

	// ---- Buffer row: one control buffer per output column.
	for k, sp := range a.Controls {
		if sp.Phase != 1 && sp.Phase != 2 {
			_, err := celllib.CtlBuf(sp.Name, sp.Phase)
			return nil, err
		}
		bx := g.outX(k) - l(celllib.CtlBufInX)
		if err := celllib.StampLeaf(c, bufs[sp.Phase-1], geom.Translate(bx, g.bufY), ctlBufNets(sp.Name, outs[k])); err != nil {
			return nil, err
		}
		// Rail and clock-track fillers in the gap to the next buffer.
		gapLo := bx + l(celllib.CtlBufWidth)
		gapHi := bx + l(orColPitch)
		if k == len(a.Controls)-1 {
			gapHi = gapLo
		}
		if gapHi > gapLo {
			lay.AddBox(layer.Metal, geom.R(gapLo, g.bufY, gapHi, g.bufY+l(4)))
			lay.AddBox(layer.Metal, geom.R(gapLo, g.bufY+l(28), gapHi, g.bufY+l(32)))
			lay.AddBox(layer.Poly, geom.R(gapLo, g.bufY+l(celllib.Phi1TrackLo), gapHi, g.bufY+l(celllib.Phi1TrackHi)))
			lay.AddBox(layer.Poly, geom.R(gapLo, g.bufY+l(celllib.Phi2TrackLo), gapHi, g.bufY+l(celllib.Phi2TrackHi)))
		}
	}
	if nOut := len(a.Controls); nOut > 0 {
		// Clock tracks continue west across the PLA apron (for clock
		// drops into the channel) and east to the cell edge (for the
		// clock pad requests).
		first := g.outX(0) - l(celllib.CtlBufInX)
		last := g.outX(nOut-1) - l(celllib.CtlBufInX) + l(celllib.CtlBufWidth)
		lay.AddBox(layer.Poly, geom.R(l(4), g.bufY+l(celllib.Phi1TrackLo), first, g.bufY+l(celllib.Phi1TrackHi)))
		lay.AddBox(layer.Poly, geom.R(l(4), g.bufY+l(celllib.Phi2TrackLo), first, g.bufY+l(celllib.Phi2TrackHi)))
		// phi2 exits straight; phi1 jogs 12λ up before the edge so the two
		// pad connection points are far enough apart for separate wires.
		lay.AddBox(layer.Poly, geom.R(last, g.bufY+l(celllib.Phi1TrackLo), g.width-l(6), g.bufY+l(celllib.Phi1TrackHi)))
		lay.AddBox(layer.Poly, geom.R(last, g.bufY+l(celllib.Phi2TrackLo), g.width, g.bufY+l(celllib.Phi2TrackHi)))
		lay.AddBox(layer.Poly, geom.R(g.width-l(8), g.bufY+l(celllib.Phi1TrackLo), g.width-l(6), g.bufY+l(celllib.Phi1TrackLo+13)))
		lay.AddBox(layer.Poly, geom.R(g.width-l(8), g.bufY+l(celllib.Phi1TrackLo+11), g.width, g.bufY+l(celllib.Phi1TrackLo+13)))
		lay.AddLabel("phi1", geom.Pt(g.width-l(1), g.bufY+l(celllib.Phi1TrackLo+12)), layer.Poly)
		lay.AddLabel("phi2", geom.Pt(g.width-l(1), g.bufY+l(celllib.Phi2TrackLo+1)), layer.Poly)
		c.AddBristle(cell.Bristle{Name: "phi1", Side: cell.East, Offset: g.bufY + l(celllib.Phi1TrackLo+12), Layer: layer.Poly, Width: l(2), Flavor: cell.PadReq, Net: "phi1", PadClass: "phi1"})
		c.AddBristle(cell.Bristle{Name: "phi2", Side: cell.East, Offset: g.bufY + l(celllib.Phi2TrackLo+1), Layer: layer.Poly, Width: l(2), Flavor: cell.PadReq, Net: "phi2", PadClass: "phi2"})
	}

	// ---- Control channel: route each buffer's south poly line to the
	// core's control x position via a metal track. Track order is
	// constrained: when control j's destination drop runs close to control
	// i's source drop, j takes a lower track so i's source never passes
	// j's contact pad.
	// Every control's source drop crosses the tracks above its own on the
	// way down from the buffer row, and those tracks carry 4λ poly contact
	// pads: the clock pads on the top tracks, and every control's
	// destination pad. A drop landing within 4λ of any pad would short
	// poly to poly, so such a drop jogs sideways just below the buffer row
	// to a clear x before descending. With every source clear of every
	// pad, no track-order constraints arise and any assignment works.
	var pads []geom.Coord
	if len(clockX["phi2"]) > 0 {
		pads = append(pads, append([]geom.Coord{l(6)}, clockX["phi2"]...)...)
	}
	if len(clockX["phi1"]) > 0 {
		pads = append(pads, append([]geom.Coord{l(12)}, clockX["phi1"]...)...)
	}
	for _, sp := range a.Controls {
		if x, ok := ctlX[sp.Name]; ok {
			pads = append(pads, x)
		}
	}
	nearPad := func(x geom.Coord) bool {
		for _, p := range pads {
			d := x - p
			if d < 0 {
				d = -d
			}
			if d < l(4) {
				return true
			}
		}
		return false
	}

	names := make([]string, len(a.Controls))
	topOf := make(map[string]geom.Coord, len(a.Controls))
	srcOf := make(map[string]geom.Coord, len(a.Controls))
	dstOf := make(map[string]geom.Coord, len(a.Controls))
	for k, sp := range a.Controls {
		names[k] = sp.Name
		top := g.outX(k) - l(celllib.CtlBufInX) + l(celllib.CtlBufOutX)
		topOf[sp.Name] = top
		src := top
		if nearPad(src) {
			src = 0
			// Buffer outputs repeat on a 24λ grid, so a jog of up to 8λ
			// cannot reach a neighbour's drop.
			for _, d := range []geom.Coord{l(4), -l(4), l(6), -l(6), l(8), -l(8)} {
				if !nearPad(top + d) {
					src = top + d
					break
				}
			}
			if src == 0 {
				return nil, fmt.Errorf("decoder: control %s's channel drop cannot clear the contact pads", sp.Name)
			}
		}
		srcOf[sp.Name] = src
		if x, ok := ctlX[sp.Name]; ok {
			dstOf[sp.Name] = x
		} else {
			dstOf[sp.Name] = src
		}
	}
	sort.Strings(names)
	order, err := channelTrackOrder(names, srcOf, dstOf)
	if err != nil {
		return nil, err
	}
	trackOf := make(map[string]int, len(order))
	for t, n := range order {
		trackOf[n] = t
	}
	for _, sp := range a.Controls {
		ty := l(6) + geom.Coord(trackOf[sp.Name])*l(chanTrackPitch)
		routeChannel(lay, topOf[sp.Name], srcOf[sp.Name], g.bufY, dstOf[sp.Name], ty, sp.Name)
		out.CtlX[sp.Name] = dstOf[sp.Name]
	}

	// Clock drops: bus-precharge cells in the core need the clocks as
	// vertical poly lines at given core x positions; each clock gets one
	// shared channel track fed from the west end of its buffer-row track.
	if dsts := clockX["phi2"]; len(dsts) > 0 {
		ty := l(6) + geom.Coord(len(names))*l(chanTrackPitch)
		clockChannel(lay, l(6), g.bufY+l(celllib.Phi2TrackLo+1), ty, dsts, "phi2")
	}
	if dsts := clockX["phi1"]; len(dsts) > 0 {
		ty := l(6) + geom.Coord(len(names)+1)*l(chanTrackPitch)
		// The phi1 track lies above the phi2 track, so its drop crosses
		// phi2 on a short metal bypass before entering the channel.
		x := l(12)
		lay.AddBox(layer.Poly, geom.R(x-l(2), g.bufY+l(50), x+l(2), g.bufY+l(54)))
		lay.AddBox(layer.Contact, geom.R(x-l(1), g.bufY+l(51), x+l(1), g.bufY+l(53)))
		lay.AddBox(layer.Metal, geom.R(x-l(2), g.bufY+l(40), x+l(2), g.bufY+l(54)))
		lay.AddBox(layer.Poly, geom.R(x-l(2), g.bufY+l(40), x+l(2), g.bufY+l(44)))
		lay.AddBox(layer.Contact, geom.R(x-l(1), g.bufY+l(41), x+l(1), g.bufY+l(43)))
		clockChannel(lay, x, g.bufY+l(41), ty, dsts, "phi1")
	}

	// Full-width buffer-row rails (they also pick up the PLA ground strap
	// drop) and the matching power bristles.
	lay.AddBox(layer.Metal, geom.R(0, g.bufY, g.width, g.bufY+l(4)))
	lay.AddBox(layer.Metal, geom.R(l(gndStrapX+8), g.bufY+l(28), g.width-l(12), g.bufY+l(32)))
	if nTermG := g.nTerm; nTermG > 0 {
		// East-edge internal power hookups: the OR-plane ground strap
		// drops in metal to the buffer gnd rail; a metal riser joins the
		// buffer vdd rail to the output-pullup top rail.
		lay.AddBox(layer.Metal, geom.R(g.width-l(6), g.bufY, g.width-l(2), g.topY))
		lay.AddBox(layer.Metal, geom.R(g.width-l(14), g.bufY+l(28), g.width-l(10), g.topY+l(8)))
	}
	c.AddBristle(cell.Bristle{Name: "buf.gnd", Side: cell.West, Offset: g.bufY + l(2), Layer: layer.Metal, Width: l(4), Flavor: cell.Ground, Net: "gnd"})
	return out, nil
}

// channelTrackOrder topologically orders the channel tracks (index 0 =
// lowest) under the constraint "j below i when j's destination drop is
// within 4λ of i's source drop"; a constraint cycle is a compile error.
// Source drops are jogged clear of every destination pad by at least 4λ
// before this runs, so in practice no constraints (and no cycles) arise;
// the ordering remains as defense in depth.
func channelTrackOrder(names []string, srcOf, dstOf map[string]geom.Coord) ([]string, error) {
	below := make(map[string][]string) // i -> js that must be below i
	indeg := make(map[string]int)
	for _, n := range names {
		indeg[n] = 0
	}
	near := func(a, b geom.Coord) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d < geom.L(4)
	}
	for _, i := range names {
		for _, j := range names {
			if i == j {
				continue
			}
			if near(dstOf[j], srcOf[i]) {
				below[i] = append(below[i], j)
				indeg[j]++
			}
		}
	}
	// Kahn's algorithm, emitting highest tracks first (reverse at the end),
	// with name ties broken deterministically.
	var ready []string
	for _, n := range names {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	sort.Strings(ready)
	var topo []string
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		topo = append(topo, n)
		var next []string
		for _, j := range below[n] {
			indeg[j]--
			if indeg[j] == 0 {
				next = append(next, j)
			}
		}
		sort.Strings(next)
		ready = append(ready, next...)
	}
	if len(topo) != len(names) {
		return nil, fmt.Errorf("decoder: control channel constraints are cyclic; space the core's control lines differently")
	}
	// topo lists from highest track to lowest; reverse for track indexes.
	for a, b := 0, len(topo)-1; a < b; a, b = a+1, b-1 {
		topo[a], topo[b] = topo[b], topo[a]
	}
	return topo, nil
}

// clockChannel drops a clock from its buffer-row track (poly at srcX,
// trackTopY) down to a shared channel metal track at ty, with poly drops
// to the south edge at each destination x.
func clockChannel(lay *mask.Cell, srcX, trackTopY, ty geom.Coord, dsts []geom.Coord, name string) {
	// Poly drop from the buffer-row track to the channel track.
	lay.AddWire(layer.Poly, l(2), geom.Pt(srcX, trackTopY), geom.Pt(srcX, ty))
	lo, hi := srcX, srcX
	for _, x := range dsts {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	lay.AddBox(layer.Metal, geom.R(lo-l(2), ty-l(2), hi+l(2), ty+l(2)))
	for _, x := range append([]geom.Coord{srcX}, dsts...) {
		lay.AddBox(layer.Poly, geom.R(x-l(2), ty-l(2), x+l(2), ty+l(2)))
		lay.AddBox(layer.Contact, geom.R(x-l(1), ty-l(1), x+l(1), ty+l(1)))
	}
	for _, x := range dsts {
		lay.AddWire(layer.Poly, l(2), geom.Pt(x, ty), geom.Pt(x, 0))
		lay.AddLabel(name, geom.Pt(x, l(1)), layer.Poly)
	}
}

// routeChannel drops a control from the buffer output (poly at topX,
// bufY) to track y=ty, runs a metal track to dstX, and drops poly to the
// south edge. When the descent would cross a clock pad, srcX differs from
// topX and the drop jogs sideways just below the buffer row first.
func routeChannel(lay *mask.Cell, topX, srcX, bufY, dstX, ty geom.Coord, name string) {
	if topX == srcX && srcX == dstX {
		lay.AddWire(layer.Poly, l(2), geom.Pt(srcX, bufY), geom.Pt(srcX, 0))
		lay.AddLabel(name, geom.Pt(srcX, l(1)), layer.Poly)
		return
	}
	// Poly drop from the buffer to the track, jogging at bufY-4λ if the
	// straight descent is blocked.
	if topX == srcX {
		lay.AddWire(layer.Poly, l(2), geom.Pt(srcX, bufY), geom.Pt(srcX, ty))
	} else {
		lay.AddWire(layer.Poly, l(2),
			geom.Pt(topX, bufY),
			geom.Pt(topX, bufY-l(4)),
			geom.Pt(srcX, bufY-l(4)),
			geom.Pt(srcX, ty))
	}
	// Contact pads at both ends of the metal track.
	for _, x := range []geom.Coord{srcX, dstX} {
		lay.AddBox(layer.Poly, geom.R(x-l(2), ty-l(2), x+l(2), ty+l(2)))
		lay.AddBox(layer.Contact, geom.R(x-l(1), ty-l(1), x+l(1), ty+l(1)))
	}
	lo, hi := srcX, dstX
	if lo > hi {
		lo, hi = hi, lo
	}
	lay.AddBox(layer.Metal, geom.R(lo-l(2), ty-l(2), hi+l(2), ty+l(2)))
	// Poly drop from the track to the south edge.
	lay.AddWire(layer.Poly, l(2), geom.Pt(dstX, ty), geom.Pt(dstX, 0))
	lay.AddLabel(name, geom.Pt(dstX, l(1)), layer.Poly)
}

// ctlPlaceholder is the control net the buffer templates are drawn for.
// It is not an identifier, so no spec control can be named it.
const ctlPlaceholder = "\x00ctl"

// The decoder's library leaves are built once per process, on the first
// decoder layout, and only read afterwards: a leaf's geometry depends
// only on its parameters (a buffer's on its phase), so every stamp copies
// the same template and renames its nets on the way.
var (
	// bufTemplates are the φ1 and φ2 control buffers, for ctlPlaceholder.
	bufTemplates = sync.OnceValues(func() (bufs [2]*cell.Cell, err error) {
		for i := range bufs {
			if bufs[i], err = celllib.CtlBuf(ctlPlaceholder, i+1); err != nil {
				return bufs, err
			}
		}
		return bufs, nil
	})
	// driverTemplate is the input-driver inverter.
	driverTemplate = sync.OnceValue(func() *cell.Cell { return celllib.Inverter("drv") })
)

// ctlBufNets renames a buffer template's nets for control name to those
// of celllib.CtlBuf(name, phase) stamped under its own cell name: the
// decoder's map for a fresh buffer plus the placeholder. A name equal to
// one of the buffer's nets joins that net, as it did in a fresh buffer.
func ctlBufNets(name, plaout string) func(string) string {
	return celllib.Rename("ctlbuf["+name+"]", map[string]string{
		"plaout": plaout, "n": name + ".n",
		"gnd": "gnd", "vdd": "vdd", "phi1": "phi1", "phi2": "phi2",
		ctlPlaceholder: name, name: name,
	})
}

// AreaSavedLambda2 reports the PLA area (λ²) the optimizer won: the
// footprint a decoder with the pre-optimization term and input counts
// would have needed, minus the built decoder's footprint. Term rows save
// plaRowPitch × width each; a folded input column saves two literal lines
// (2 × andColPitch) across the full height.
func (r *Result) AreaSavedLambda2() float64 {
	nOut := len(r.Array.Controls)
	before := computeGeom(r.Stats.InputsBefore, r.Stats.TermsBefore, nOut, nOut+2)
	after := computeGeom(r.Stats.InputsAfter, r.Stats.TermsAfter, nOut, nOut+2)
	return geom.InLambda(before.width)*geom.InLambda(before.height) -
		geom.InLambda(after.width)*geom.InLambda(after.height)
}
