package core

import (
	"fmt"
	"strconv"
	"strings"

	"bristleblocks/internal/cell"
	"bristleblocks/internal/geom"
	"bristleblocks/internal/logic"
	"bristleblocks/internal/sticks"
	"bristleblocks/internal/textrep"
	"bristleblocks/internal/transistor"
)

// reset support for the behavioural models (NewSim returns a fresh chip).
func (m *regModel) reset()   { m.val = 0 }
func (m *aluModel) reset()   { m.a, m.b, m.result = 0, 0, 0 }
func (m *shiftModel) reset() { m.val = 0 }
func (m *ioModel) reset()    { m.padIn, m.padOut = 0, 0 }

// globalNets are the nets shared across cells; everything else is renamed
// per cell instance when merging chip-level netlists.
func (c *Chip) globalNets() map[string]bool {
	g := map[string]bool{"gnd": true, "vdd": true, "phi1": true, "phi2": true}
	for _, seg := range c.plan.Segments {
		g[seg.Name] = true
	}
	for _, col := range c.columns {
		for _, sp := range col.controls {
			g[sp.Name] = true
		}
		// Pad nets are global too.
		for _, cc := range col.cells {
			for _, b := range cc.Bristles {
				if b.Flavor == cell.PadReq {
					g[b.Net] = true
				}
			}
		}
	}
	return g
}

// buildRepresentations assembles the Sticks, Transistor, Logic, Text and
// Block representations from the compiled cells — "every fundamental
// element in the Bristle Block system has the capability of containing
// each of these seven representations for itself".
func (c *Chip) buildRepresentations() {
	globals := c.globalNets()
	pitch := c.Stats.Pitch

	st := &sticks.Diagram{}
	nl := &transistor.Netlist{}
	lg := &logic.Diagram{}

	for _, col := range c.columns {
		for r, cc := range col.cells {
			row := strconv.Itoa(r)
			t := geom.Translate(col.x-cc.Size.MinX, geom.Coord(r)*pitch-cc.Size.MinY)
			if cc.Sticks != nil {
				st.MergeTransformed(cc.Sticks, t)
			}
			if cc.Netlist != nil {
				nl.MergeRenamed(cc.Netlist, func(n string) string {
					if globals[n] {
						return n
					}
					return col.name + "." + row + "." + n
				})
			}
		}
		// Logic is per column (each bit row repeats the same gates over
		// the word; the Logic level shows the slice once per column).
		if len(col.cells) > 0 && col.cells[0].Logic != nil {
			sub := col.cells[0].Logic.Copy()
			m := make(map[string]string)
			for _, g := range sub.Gates {
				for _, n := range append([]string{g.Output}, g.Inputs...) {
					if n != "0" && n != "1" && !globals[n] {
						m[n] = col.name + "." + n
					}
				}
			}
			sub.Rename(m)
			lg.Merge(sub)
		}
	}

	// The decoder's representations.
	if c.Decoder != nil {
		dec := c.Decoder.Layout.Cell
		t := geom.Translate(0, c.Stats.CoreBounds.MaxY+geom.L(8))
		if dec.Sticks != nil {
			st.MergeTransformed(dec.Sticks, t)
		}
		if dec.Netlist != nil {
			nl.Merge(dec.Netlist)
		}
		lg.Merge(c.Decoder.Array.Logic())
	}

	c.Sticks = st
	c.Netlist = nl
	c.Logic = lg
	c.Text = c.buildText()
	c.Block = c.blockDiagram()
	c.Logical = c.logicalDiagram()
}

// fillStats fills the chip-level counts. Transistors are counted over the
// placed cells and the decoder, the netlists buildRepresentations merges,
// so Stats is the same whether or not the merged netlist was built.
func (c *Chip) fillStats() {
	c.Stats.Columns = len(c.columns)
	c.Stats.CellsPlaced = len(c.columns) * c.Spec.DataWidth
	n := 0
	for _, col := range c.columns {
		for _, cc := range col.cells {
			if cc.Netlist != nil {
				n += len(cc.Netlist.Txs)
			}
		}
	}
	if c.Decoder != nil && c.Decoder.Layout.Cell.Netlist != nil {
		n += len(c.Decoder.Layout.Cell.Netlist.Txs)
	}
	c.Stats.Transistors = n
	if c.Mask != nil {
		c.Stats.ChipBounds = c.Mask.BBox()
	}
}

// buildText produces the Text representation: "a hierarchical description
// of the chip that can be used as a 'user's manual' for the completed
// chip". The manual is a textrep document — overview, instruction format,
// buses, one subsection per core element, decoder, pads — so its hierarchy
// mirrors the chip's.
func (c *Chip) buildText() string {
	d := textrep.New("CHIP " + c.Spec.Name)

	ov := d.Section("Overview")
	ov.Fact("data width", "%d bits", c.Spec.DataWidth)
	ov.Fact("core", "%d columns at %.1fλ row pitch", len(c.columns), geom.InLambda(c.Stats.Pitch))
	if c.Stats.PowerUA > 0 {
		ov.Fact("supply", "%d µA", c.Stats.PowerUA)
	}

	mc := d.Section("Instruction format")
	mc.Text("%d-bit microcode word; fields:", c.Spec.Microcode.Width)
	ft := mc.NewTable("field", "bits")
	for _, fd := range c.Spec.Microcode.Fields {
		ft.Row(fd.Name, fmt.Sprintf("[%d,%d)", fd.Lo, fd.Lo+fd.Width))
	}

	bs := d.Section("Buses")
	bs.Text("precharged on φ2, transfer on φ1; wired-AND when multiply driven")
	bt := bs.NewTable("bus", "slot", "elements")
	for _, seg := range c.plan.Segments {
		bt.Row(seg.Name, seg.Slot, fmt.Sprintf("%d..%d", seg.From, seg.To))
	}

	el := d.Section("Core elements")
	for _, col := range c.columns {
		cc := col.cells[0]
		s := el.Section(col.name)
		s.Fact("kind", "%s", cc.BlockLabel)
		s.Fact("width", "%.1fλ", geom.InLambda(cc.Width()))
		if cc.Doc != "" {
			s.Text("%s", cc.Doc)
		}
		if cc.SimNote != "" {
			s.Text("%s", cc.SimNote)
		}
		if len(col.controls) > 0 {
			ct := s.NewTable("control", "phase", "active when")
			for _, sp := range col.controls {
				ct.Row(sp.Name, fmt.Sprintf("φ%d", sp.Phase), sp.Guard)
			}
		}
	}

	if c.Decoder != nil {
		dec := d.Section("Instruction decoder")
		dec.Fact("product terms", "%d", len(c.Decoder.Array.Terms))
		dec.Fact("microcode bits used", "%d", len(c.Decoder.Array.UsedInputs()))
		dec.Fact("controls driven", "%d", len(c.Decoder.Array.Controls))
	}
	if c.Ring != nil {
		p := d.Section("Pads")
		p.Fact("count", "%d", c.Ring.PadCount)
		p.Fact("ring rotation", "%d (Roto-Router)", c.Ring.Rotation)
		p.Fact("total wire", "%dλ", int(geom.InLambda(c.Ring.TotalWireLen)))
	}
	return d.Render()
}

// blockDiagram renders the Block representation of the physical format
// (Figure 1): pads surrounding the core and instruction decoder.
func (c *Chip) blockDiagram() string {
	var sb strings.Builder
	width := 0
	var names []string
	for _, col := range c.columns {
		names = append(names, col.cells[0].BlockLabel)
		if len(col.cells[0].BlockLabel) > width {
			width = len(col.cells[0].BlockLabel)
		}
	}
	inner := len(names)*(width+1) + 1
	line := strings.Repeat("-", inner+2)
	pad := func() string {
		n := (inner + 2) / 4
		if n < 1 {
			n = 1
		}
		cells := make([]string, n)
		for i := range cells {
			cells[i] = "[]"
		}
		return strings.Join(cells, "  ")
	}
	fmt.Fprintf(&sb, "%s\n", centerText(pad(), inner+4))
	fmt.Fprintf(&sb, " +%s+\n", line)
	fmt.Fprintf(&sb, " |%s|\n", centerText("DECODER", inner+2))
	fmt.Fprintf(&sb, " +%s+\n", line)
	var cells strings.Builder
	for _, n := range names {
		fmt.Fprintf(&cells, " %-*s", width, n)
	}
	body := cells.String()
	if len(body) < inner+2 {
		body += strings.Repeat(" ", inner+2-len(body))
	}
	fmt.Fprintf(&sb, " |%s|\n", body)
	fmt.Fprintf(&sb, " +%s+\n", line)
	fmt.Fprintf(&sb, "%s\n", centerText(pad(), inner+4))
	return sb.String()
}

// logicalDiagram renders the Block representation of the logical format
// (Figure 2): the buses running through the core elements with the
// decoder's control signals from above.
func (c *Chip) logicalDiagram() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "microcode -> DECODER -> control buffers\n")
	names := make([]string, len(c.columns))
	w := 0
	for i, col := range c.columns {
		names[i] = col.name
		if len(col.name) > w {
			w = len(col.name)
		}
	}
	ctl := "   "
	for range names {
		ctl += strings.Repeat(" ", w/2) + "v" + strings.Repeat(" ", w-w/2)
	}
	fmt.Fprintf(&sb, "%s\n", ctl)
	row := "   "
	for _, n := range names {
		row += fmt.Sprintf("%-*s ", w, n)
	}
	fmt.Fprintf(&sb, "%s\n", row)
	// Bus occupancy per element.
	for _, slot := range []struct {
		s    int
		name string
	}{{0, "upper"}, {1, "lower"}} {
		row := ""
		for _, col := range c.columns {
			seg := c.plan.AtElement[col.elemIdx][slot.s]
			if seg != nil {
				row += fmt.Sprintf("%-*s ", w, strings.Repeat("=", w-2)+seg.Name)
			} else {
				row += strings.Repeat(" ", w+1)
			}
		}
		fmt.Fprintf(&sb, "%s  %s bus\n", row, slot.name)
	}
	return sb.String()
}

func centerText(s string, width int) string {
	if len(s) >= width {
		return s
	}
	left := (width - len(s)) / 2
	return strings.Repeat(" ", left) + s + strings.Repeat(" ", width-len(s)-left)
}
