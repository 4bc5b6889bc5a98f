// Package tm implements a generic two-tape Turing machine. The paper
// describes Pass 2 this way: "A two-tape Turing machine operates on one
// 'tape', which contains the text array, and writes the second 'tape',
// producing compiled silicon code." Package decoder programs this machine
// to transduce decode-function text arrays into silicon-code ops.
package tm

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Symbol is one tape cell. The empty string is reserved; use a machine's
// Blank for empty cells.
type Symbol string

// Wildcard in a rule's read position matches any symbol; in a write
// position it leaves the cell unchanged.
const Wildcard Symbol = "*"

// State names a machine state.
type State string

// Move is a head motion.
type Move int8

const (
	// Stay leaves the head in place.
	Stay Move = 0
	// Left moves the head one cell left.
	Left Move = -1
	// Right moves the head one cell right.
	Right Move = 1
)

// Key selects a transition: current state plus the symbols under both
// heads. Lookup tries exact, then (state, read1, *), then (state, *, read2),
// then (state, *, *).
type Key struct {
	State        State
	Read1, Read2 Symbol
}

// Action is the effect of a transition.
type Action struct {
	Next           State
	Write1, Write2 Symbol
	Move1, Move2   Move
}

// Machine is a two-tape Turing machine program.
type Machine struct {
	Start  State
	Accept State
	Reject State
	Blank  Symbol
	Rules  map[Key]Action
}

// NewMachine returns a machine with empty rules and "_" as blank.
func NewMachine(start, accept, reject State) *Machine {
	return &Machine{
		Start:  start,
		Accept: accept,
		Reject: reject,
		Blank:  "_",
		Rules:  make(map[Key]Action),
	}
}

// Add installs a transition rule.
func (m *Machine) Add(state State, read1, read2 Symbol, next State, write1, write2 Symbol, move1, move2 Move) {
	m.Rules[Key{state, read1, read2}] = Action{next, write1, write2, move1, move2}
}

// Tape is one machine tape: a semi-infinite-in-both-directions cell array
// with a head. The cells the machine has reached are one slice; every
// other cell reads blank.
type Tape struct {
	blank Symbol
	cells []Symbol // cells[i] is position i+off; blank where unwritten
	off   int
	pos   int
}

// NewTape builds a tape containing the given symbols starting at position
// 0, with the head at 0.
func NewTape(blank Symbol, contents []Symbol) *Tape {
	return &Tape{blank: blank, cells: append([]Symbol(nil), contents...)}
}

// Read returns the symbol under the head.
func (t *Tape) Read() Symbol {
	if i := t.pos - t.off; i >= 0 && i < len(t.cells) {
		return t.cells[i]
	}
	return t.blank
}

// Write replaces the symbol under the head; writing blank erases the cell.
func (t *Tape) Write(s Symbol) {
	i := t.pos - t.off
	if i < 0 || i >= len(t.cells) {
		if s == t.blank {
			return // already blank
		}
		i = t.reach(i)
	}
	t.cells[i] = s
}

// reach grows the cell slice to cover index i (relative to off), filling
// the new cells with blank, and returns i's index after the growth. The
// slice at least doubles when it grows to the left, so a machine walking
// left pays amortized constant time per cell, as it does walking right.
func (t *Tape) reach(i int) int {
	if i >= len(t.cells) {
		for len(t.cells) <= i {
			t.cells = append(t.cells, t.blank)
		}
		return i
	}
	n := max(-i, len(t.cells), 8) // cells to add on the left
	cells := make([]Symbol, n+len(t.cells))
	for j := range n {
		cells[j] = t.blank
	}
	copy(cells[n:], t.cells)
	t.cells, t.off = cells, t.off-n
	return i + n
}

// MoveHead shifts the head.
func (t *Tape) MoveHead(m Move) { t.pos += int(m) }

// Pos returns the head position.
func (t *Tape) Pos() int { return t.pos }

// Contents returns the written span of the tape with trailing and leading
// blanks trimmed.
func (t *Tape) Contents() []Symbol {
	lo, hi := 0, len(t.cells)
	for lo < hi && t.cells[lo] == t.blank {
		lo++
	}
	for hi > lo && t.cells[hi-1] == t.blank {
		hi--
	}
	return append(make([]Symbol, 0, hi-lo), t.cells[lo:hi]...)
}

// String renders the tape contents around the head.
func (t *Tape) String() string {
	parts := t.Contents()
	ss := make([]string, len(parts))
	for i, p := range parts {
		ss[i] = string(p)
	}
	return strings.Join(ss, " ")
}

// Result reports a completed run.
type Result struct {
	Final State
	Steps int
}

// Run executes the machine on the two tapes until it reaches Accept or
// Reject, a missing transition (an error), or maxSteps (an error;
// 0 means 1<<20 steps).
func (m *Machine) Run(t1, t2 *Tape, maxSteps int) (Result, error) {
	if maxSteps <= 0 {
		maxSteps = 1 << 20
	}
	state := m.Start
	for step := 0; ; step++ {
		if state == m.Accept || state == m.Reject {
			return Result{Final: state, Steps: step}, nil
		}
		if step >= maxSteps {
			return Result{Final: state, Steps: step}, fmt.Errorf("tm: exceeded %d steps in state %q", maxSteps, state)
		}
		r1, r2 := t1.Read(), t2.Read()
		act, ok := m.lookup(state, r1, r2)
		if !ok {
			return Result{Final: state, Steps: step},
				fmt.Errorf("tm: no rule for state %q reading (%q, %q)", state, r1, r2)
		}
		if act.Write1 != Wildcard {
			t1.Write(act.Write1)
		}
		if act.Write2 != Wildcard {
			t2.Write(act.Write2)
		}
		t1.MoveHead(act.Move1)
		t2.MoveHead(act.Move2)
		state = act.Next
	}
}

func (m *Machine) lookup(state State, r1, r2 Symbol) (Action, bool) {
	for _, k := range [4]Key{
		{state, r1, r2},
		{state, r1, Wildcard},
		{state, Wildcard, r2},
		{state, Wildcard, Wildcard},
	} {
		if a, ok := m.Rules[k]; ok {
			return a, true
		}
	}
	return Action{}, false
}

// Symbols converts a string to one Symbol per rune, a convenience for
// character-oriented tapes.
func Symbols(s string) []Symbol {
	out := make([]Symbol, 0, len(s))
	for i, r := range s {
		if r == utf8.RuneError {
			out = append(out, Symbol(string(r)))
			continue
		}
		out = append(out, Symbol(s[i:i+utf8.RuneLen(r)])) // shares s: no allocation per rune
	}
	return out
}
