package tm

import (
	"reflect"
	"strings"
	"testing"
)

// copyMachine copies tape 1 to tape 2 until blank.
func copyMachine() *Machine {
	m := NewMachine("scan", "done", "fail")
	m.Add("scan", m.Blank, Wildcard, "done", Wildcard, Wildcard, Stay, Stay)
	m.Add("scan", Wildcard, Wildcard, "copy", Wildcard, Wildcard, Stay, Stay)
	// copy reads tape1 symbol; there is one rule per symbol we care about.
	for _, s := range []Symbol{"a", "b", "c"} {
		m.Add("copy", s, Wildcard, "scan", Wildcard, s, Right, Right)
	}
	return m
}

func TestCopyMachine(t *testing.T) {
	m := copyMachine()
	t1 := NewTape(m.Blank, Symbols("abcba"))
	t2 := NewTape(m.Blank, nil)
	res, err := m.Run(t1, t2, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Final != "done" {
		t.Errorf("final state %q", res.Final)
	}
	if got := t2.String(); got != "a b c b a" {
		t.Errorf("tape2 = %q", got)
	}
	if res.Steps == 0 {
		t.Error("steps not counted")
	}
}

func TestMissingRule(t *testing.T) {
	m := copyMachine()
	t1 := NewTape(m.Blank, Symbols("axb")) // 'x' has no rule
	t2 := NewTape(m.Blank, nil)
	if _, err := m.Run(t1, t2, 0); err == nil {
		t.Error("missing rule should error")
	} else if !strings.Contains(err.Error(), "no rule") {
		t.Errorf("error = %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	m := NewMachine("loop", "acc", "rej")
	m.Add("loop", Wildcard, Wildcard, "loop", Wildcard, Wildcard, Right, Stay)
	t1 := NewTape(m.Blank, nil)
	t2 := NewTape(m.Blank, nil)
	if _, err := m.Run(t1, t2, 100); err == nil {
		t.Error("runaway machine should hit the step limit")
	}
}

func TestRejectState(t *testing.T) {
	m := NewMachine("s", "acc", "rej")
	m.Add("s", Wildcard, Wildcard, "rej", Wildcard, Wildcard, Stay, Stay)
	res, err := m.Run(NewTape(m.Blank, nil), NewTape(m.Blank, nil), 10)
	if err != nil || res.Final != "rej" {
		t.Errorf("res=%v err=%v", res, err)
	}
}

func TestWildcardPriority(t *testing.T) {
	// Exact rules must win over wildcards.
	m := NewMachine("s", "acc", "rej")
	m.Add("s", "a", m.Blank, "acc", Wildcard, "hit", Stay, Stay)
	m.Add("s", Wildcard, Wildcard, "rej", Wildcard, Wildcard, Stay, Stay)
	t2 := NewTape(m.Blank, nil)
	res, err := m.Run(NewTape(m.Blank, Symbols("a")), t2, 10)
	if err != nil || res.Final != "acc" {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if t2.Read() != "hit" {
		t.Error("exact rule action not applied")
	}
}

func TestTapeMechanics(t *testing.T) {
	tape := NewTape("_", Symbols("xy"))
	if tape.Read() != "x" {
		t.Error("initial read wrong")
	}
	tape.MoveHead(Left)
	if tape.Pos() != -1 || tape.Read() != "_" {
		t.Error("left of origin should be blank")
	}
	tape.Write("z")
	tape.MoveHead(Right)
	tape.MoveHead(Right)
	tape.Write("_") // writing blank erases
	if got := tape.String(); got != "z x" {
		t.Errorf("tape = %q", got)
	}
	var empty Tape
	empty.blank = "_"
	if len(empty.Contents()) != 0 {
		t.Error("empty tape should have no contents")
	}
}

func TestWildcardWriteKeeps(t *testing.T) {
	m := NewMachine("s", "acc", "rej")
	m.Add("s", "a", Wildcard, "acc", Wildcard, Wildcard, Stay, Stay)
	t1 := NewTape(m.Blank, Symbols("a"))
	if _, err := m.Run(t1, NewTape(m.Blank, nil), 10); err != nil {
		t.Fatal(err)
	}
	if t1.Read() != "a" {
		t.Error("wildcard write should keep the cell")
	}
}

func TestSymbols(t *testing.T) {
	ss := Symbols("01-|")
	if len(ss) != 4 || ss[2] != "-" {
		t.Errorf("Symbols = %v", ss)
	}
}

// TestBinaryIncrement exercises Left moves and multi-state programs: the
// machine increments a binary number written LSB-first on tape 1.
func TestBinaryIncrement(t *testing.T) {
	m := NewMachine("inc", "acc", "rej")
	m.Add("inc", "0", Wildcard, "acc", "1", Wildcard, Stay, Stay)
	m.Add("inc", "1", Wildcard, "inc", "0", Wildcard, Right, Stay)
	m.Add("inc", m.Blank, Wildcard, "acc", "1", Wildcard, Stay, Stay)

	cases := map[string]string{
		"0":   "1",
		"1":   "0 1",
		"11":  "0 0 1",
		"101": "0 1 1",
	}
	for in, want := range cases {
		t1 := NewTape(m.Blank, Symbols(in))
		if _, err := m.Run(t1, NewTape(m.Blank, nil), 100); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if got := t1.String(); got != want {
			t.Errorf("inc(%s) = %q, want %q", in, got, want)
		}
	}
}

// mapTape is the map-backed tape Tape replaced, kept as FuzzTape's
// reference: a cell holds a symbol only while it is not blank.
type mapTape struct {
	blank Symbol
	cells map[int]Symbol
	pos   int
}

func newMapTape(blank Symbol, contents []Symbol) *mapTape {
	t := &mapTape{blank: blank, cells: make(map[int]Symbol, len(contents))}
	for i, s := range contents {
		if s != blank {
			t.cells[i] = s
		}
	}
	return t
}

func (t *mapTape) Read() Symbol {
	if s, ok := t.cells[t.pos]; ok {
		return s
	}
	return t.blank
}

func (t *mapTape) Write(s Symbol) {
	if s == t.blank {
		delete(t.cells, t.pos)
	} else {
		t.cells[t.pos] = s
	}
}

func (t *mapTape) Contents() []Symbol {
	lo, hi := 0, -1
	first := true
	for p := range t.cells {
		if first {
			lo, hi = p, p
			first = false
			continue
		}
		lo, hi = min(lo, p), max(hi, p)
	}
	out := make([]Symbol, 0, hi-lo+1)
	for p := lo; p <= hi; p++ {
		if s, ok := t.cells[p]; ok {
			out = append(out, s)
		} else {
			out = append(out, t.blank)
		}
	}
	return out
}

// FuzzTape drives Tape and the map-backed reference through the same
// Read/Write/Move sequence and requires every read, head position and
// Contents to agree. The first byte picks the initial contents' length;
// each later byte is one operation: its low two bits select read, write,
// move, or a far jump, the rest its symbol, direction or distance.
func FuzzTape(f *testing.F) {
	f.Add([]byte{3, 0x01, 0x06, 0x0a, 0x02, 0x12, 0x11})
	f.Add([]byte{0, 0x03, 0x83, 0x05, 0x02, 0x0e, 0x00})
	f.Add([]byte{5, 0x07, 0x07, 0x07, 0x05, 0x0d, 0x01, 0x0a})
	alphabet := []Symbol{"_", "0", "1", "x", ""}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		init := make([]Symbol, int(ops[0])%9)
		for i := range init {
			init[i] = alphabet[i%len(alphabet)]
		}
		got, want := NewTape("_", init), newMapTape("_", init)
		for i, op := range ops[1:] {
			switch arg := int(op >> 2); op & 3 {
			case 0:
				if g, w := got.Read(), want.Read(); g != w {
					t.Fatalf("op %d: Read = %q, want %q", i, g, w)
				}
			case 1:
				s := alphabet[arg%len(alphabet)]
				got.Write(s)
				want.Write(s)
			case 2:
				m := Move(arg%3 - 1)
				got.MoveHead(m)
				want.pos += int(m)
			case 3:
				d := arg%32 - 16
				for range max(d, -d) {
					got.MoveHead(Move(d / max(d, -d)))
				}
				want.pos += d
			}
			if got.Pos() != want.pos {
				t.Fatalf("op %d: Pos = %d, want %d", i, got.Pos(), want.pos)
			}
		}
		if g, w := got.Contents(), want.Contents(); !reflect.DeepEqual(g, w) {
			t.Fatalf("Contents = %q, want %q", g, w)
		}
	})
}
