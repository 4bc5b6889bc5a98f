package core

import (
	"bristleblocks/internal/cell"
	"bristleblocks/internal/geom"
)

// This file is the compiler's introspection seam: read-only views of the
// core pass's internal placement state for external verifiers (package
// invariant cross-checks the seven representations against each other and
// needs to see exactly what was placed where, not just the merged output).

// PlacedCell is one cell instance as the core pass placed it: the owning
// column, the bit row, the stretched cell, and the translation applied to
// its layout (identical to the transform used for its sticks and netlist
// contributions).
type PlacedCell struct {
	Column      string
	ColumnIndex int
	Row         int
	Cell        *cell.Cell
	// Offset is the translation from cell coordinates to core coordinates
	// (the PlaceNamed transform: column x minus Size.MinX, row*pitch minus
	// Size.MinY).
	Offset geom.Point
}

// PlacedCells reports every core cell placement in column-then-row order.
// It is empty before the core pass has run.
func (c *Chip) PlacedCells() []PlacedCell {
	var out []PlacedCell
	pitch := c.Stats.Pitch
	for ci, col := range c.columns {
		for r, cc := range col.cells {
			out = append(out, PlacedCell{
				Column:      col.name,
				ColumnIndex: ci,
				Row:         r,
				Cell:        cc,
				Offset:      geom.Pt(col.x-cc.Size.MinX, geom.Coord(r)*pitch-cc.Size.MinY),
			})
		}
	}
	return out
}

// GlobalNets reports the nets shared across cell instances (supplies,
// clocks, bus segments, control lines, pad nets) — the same set the
// representation builder keeps un-renamed when merging per-cell netlists,
// exposed so a verifier can compare extracted and declared netlists at
// matching granularity.
func (c *Chip) GlobalNets() map[string]bool {
	if c.plan == nil {
		return map[string]bool{"gnd": true, "vdd": true, "phi1": true, "phi2": true}
	}
	return c.globalNets()
}
