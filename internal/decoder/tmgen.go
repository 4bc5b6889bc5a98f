package decoder

import (
	"fmt"

	"bristleblocks/internal/tm"
)

// Silicon-code ops: the symbols the two-tape Turing machine writes on its
// second tape. The PLA layout builder consumes exactly this op stream.
const (
	// OpAnd0 places an AND-plane transistor on the true input column
	// (term requires the bit to be 0).
	OpAnd0 = tm.Symbol("a0")
	// OpAnd1 places an AND-plane transistor on the complement column
	// (term requires the bit to be 1).
	OpAnd1 = tm.Symbol("a1")
	// OpAndX leaves the crosspoint empty.
	OpAndX = tm.Symbol("ax")
	// OpSep marks the AND/OR plane boundary within a row.
	OpSep = tm.Symbol("sep")
	// OpOr1 places an OR-plane transistor (term feeds this output).
	OpOr1 = tm.Symbol("o1")
	// OpOr0 leaves the OR crosspoint empty.
	OpOr0 = tm.Symbol("o0")
	// OpRow ends a PLA row.
	OpRow = tm.Symbol("row")
	// OpEnd ends the PLA.
	OpEnd = tm.Symbol("end")
)

// DecoderMachine programs the paper's two-tape Turing machine: tape 1
// holds the text array (TapeText), tape 2 receives compiled silicon code.
func DecoderMachine() *tm.Machine {
	m := tm.NewMachine("and", "accept", "reject")
	// AND-plane scan.
	m.Add("and", "0", tm.Wildcard, "and", tm.Wildcard, OpAnd0, tm.Right, tm.Right)
	m.Add("and", "1", tm.Wildcard, "and", tm.Wildcard, OpAnd1, tm.Right, tm.Right)
	m.Add("and", "-", tm.Wildcard, "and", tm.Wildcard, OpAndX, tm.Right, tm.Right)
	m.Add("and", ":", tm.Wildcard, "or", tm.Wildcard, OpSep, tm.Right, tm.Right)
	m.Add("and", "#", tm.Wildcard, "accept", tm.Wildcard, OpEnd, tm.Stay, tm.Stay)
	// OR-plane scan.
	m.Add("or", "1", tm.Wildcard, "or", tm.Wildcard, OpOr1, tm.Right, tm.Right)
	m.Add("or", ".", tm.Wildcard, "or", tm.Wildcard, OpOr0, tm.Right, tm.Right)
	m.Add("or", "|", tm.Wildcard, "and", tm.Wildcard, OpRow, tm.Right, tm.Right)
	// Anything else is a malformed array.
	m.Add("and", tm.Wildcard, tm.Wildcard, "reject", tm.Wildcard, tm.Wildcard, tm.Stay, tm.Stay)
	m.Add("or", tm.Wildcard, tm.Wildcard, "reject", tm.Wildcard, tm.Wildcard, tm.Stay, tm.Stay)
	return m
}

// CompileSilicon runs the Turing machine over the array's tape text and
// returns the silicon-code op stream from tape 2.
func CompileSilicon(a *Array) ([]tm.Symbol, error) {
	m := DecoderMachine()
	t1 := tm.NewTape(m.Blank, tm.Symbols(a.TapeText()))
	t2 := tm.NewTape(m.Blank, nil)
	res, err := m.Run(t1, t2, 0)
	if err != nil {
		return nil, fmt.Errorf("decoder: turing machine failed: %w", err)
	}
	if res.Final != m.Accept {
		return nil, fmt.Errorf("decoder: turing machine rejected the text array")
	}
	return t2.Contents(), nil
}

// opGrid reconstructs the row structure from a silicon-code op stream,
// validating that every row has the same AND width and OR width.
type opGrid struct {
	andWidth int
	orWidth  int
	// rows[r][c] for c < andWidth is OpAnd?; beyond it is OpOr?.
	rows [][]tm.Symbol
}

func parseOps(ops []tm.Symbol) (*opGrid, error) {
	g := &opGrid{andWidth: -1, orWidth: -1}
	// Rows are windows on one array with room for every op: it never moves.
	cells := make([]tm.Symbol, 0, len(ops))
	start := 0
	andCount, orCount := 0, 0
	inOr := false
	for _, op := range ops {
		switch op {
		case OpAnd0, OpAnd1, OpAndX:
			if inOr {
				return nil, fmt.Errorf("decoder: AND op after separator")
			}
			cells = append(cells, op)
			andCount++
		case OpSep:
			if inOr {
				return nil, fmt.Errorf("decoder: duplicate separator in row")
			}
			inOr = true
		case OpOr0, OpOr1:
			if !inOr {
				return nil, fmt.Errorf("decoder: OR op before separator")
			}
			cells = append(cells, op)
			orCount++
		case OpRow:
			if !inOr {
				return nil, fmt.Errorf("decoder: row ended before separator")
			}
			if g.andWidth == -1 {
				g.andWidth, g.orWidth = andCount, orCount
			} else if andCount != g.andWidth || orCount != g.orWidth {
				return nil, fmt.Errorf("decoder: ragged PLA row (%d/%d vs %d/%d)",
					andCount, orCount, g.andWidth, g.orWidth)
			}
			g.rows = append(g.rows, cells[start:len(cells):len(cells)])
			start, andCount, orCount, inOr = len(cells), 0, 0, false
		case OpEnd:
			if len(cells) != start || inOr {
				return nil, fmt.Errorf("decoder: end op inside a row")
			}
			return g, nil
		default:
			return nil, fmt.Errorf("decoder: unknown silicon op %q", op)
		}
	}
	return nil, fmt.Errorf("decoder: op stream missing end marker")
}
