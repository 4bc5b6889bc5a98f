package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"bristleblocks/internal/decoder"
	"bristleblocks/internal/drc"
	"bristleblocks/internal/geom"
	"bristleblocks/internal/layer"
	"bristleblocks/internal/trace"
	"bristleblocks/internal/transistor"
)

func TestSpecValidationTable(t *testing.T) {
	f, _ := decoder.ParseFormat("width 8; OP 0 4")
	good := func() *Spec {
		return &Spec{
			Name: "c", Microcode: f, DataWidth: 4,
			Elements: []ElementSpec{{Kind: "registers", Name: "r",
				Params: map[string]string{"ld": "OP=1", "rd": "OP=2"}}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "no name"},
		{"no microcode", func(s *Spec) { s.Microcode = nil }, "no microcode"},
		{"zero width", func(s *Spec) { s.DataWidth = 0 }, "out of range"},
		{"huge width", func(s *Spec) { s.DataWidth = 65 }, "out of range"},
		{"no elements", func(s *Spec) { s.Elements = nil }, "no core elements"},
		{"unnamed element", func(s *Spec) { s.Elements[0].Name = "" }, "has no name"},
		{"unknown kind", func(s *Spec) { s.Elements[0].Kind = "fpu" }, "unknown kind"},
		{"duplicate name", func(s *Spec) {
			s.Elements = append(s.Elements, s.Elements[0])
		}, "duplicate element name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := good()
			tc.mutate(s)
			_, err := Compile(s, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
	if _, err := Compile(good(), &Options{SkipPads: true}); err != nil {
		t.Fatalf("baseline spec must compile: %v", err)
	}
}

func TestConditionalAssemblyNegation(t *testing.T) {
	// OnlyIf with a '!' prefix assembles the element when the global is
	// false — the production-only counterpart of PROTOTYPE.
	spec := testSpec(4)
	spec.Elements = append(spec.Elements, ElementSpec{
		Kind: "const", Name: "prodmark", OnlyIf: "!PROTOTYPE",
		Params: map[string]string{"value": "3", "rd": "OP=10"},
	})

	spec.Globals = map[string]bool{"PROTOTYPE": true}
	proto := compileTest(t, spec, &Options{SkipPads: true})
	for _, col := range proto.Columns() {
		if col.Name == "prodmark" {
			t.Error("negated element assembled while global true")
		}
	}

	spec2 := testSpec(4)
	spec2.Elements = append(spec2.Elements, ElementSpec{
		Kind: "const", Name: "prodmark", OnlyIf: "!PROTOTYPE",
		Params: map[string]string{"value": "3", "rd": "OP=10"},
	})
	spec2.Globals = map[string]bool{"PROTOTYPE": false}
	prod := compileTest(t, spec2, &Options{SkipPads: true})
	found := false
	for _, col := range prod.Columns() {
		if col.Name == "prodmark" {
			found = true
		}
	}
	if !found {
		t.Error("negated element missing while global false")
	}
}

func TestSkipExtraReps(t *testing.T) {
	chip := compileTest(t, testSpec(4), &Options{SkipPads: true, SkipExtraReps: true})
	if chip.Mask == nil {
		t.Fatal("layout must always be produced")
	}
	if chip.Text != "" || chip.Block != "" {
		t.Error("extra representations produced despite SkipExtraReps")
	}
}

func TestColumnsReport(t *testing.T) {
	chip := compileTest(t, testSpec(4), &Options{SkipPads: true})
	cols := chip.Columns()
	if len(cols) != chip.Stats.Columns {
		t.Fatalf("Columns() length %d != Stats.Columns %d", len(cols), chip.Stats.Columns)
	}
	var totalW geom.Coord
	names := map[string]bool{}
	for _, col := range cols {
		if col.Width <= 0 {
			t.Errorf("column %s has width %d", col.Name, col.Width)
		}
		if col.PowerUA <= 0 {
			t.Errorf("column %s draws no power", col.Name)
		}
		names[col.Name] = true
		totalW += col.Width
	}
	for _, want := range []string{"io", "r0", "r1", "alu", "sh", "k1"} {
		if !names[want] {
			t.Errorf("column %s missing from report (have %v)", want, names)
		}
	}
	if totalW != chip.Stats.CoreBounds.W() {
		t.Errorf("columns sum to %dλ, core is %dλ wide",
			totalW/4, chip.Stats.CoreBounds.W()/4)
	}
}

func TestEastIOPortRejectedWhenDecoderWider(t *testing.T) {
	// An I/O element placed last (east side) on a narrow core must be
	// rejected with the explanatory error, not a routing failure.
	f, _ := decoder.ParseFormat("width 8; OP 0 4; SEL 4 2")
	spec := &Spec{
		Name: "eastio", Microcode: f, DataWidth: 4,
		Elements: []ElementSpec{
			{Kind: "registers", Name: "r", Params: map[string]string{"ld": "OP=2", "rd": "OP=3"}},
			{Kind: "ioport", Name: "io", Params: map[string]string{"io": "OP=1", "class": "io"}},
		},
	}
	_, err := Compile(spec, nil)
	if err == nil || !strings.Contains(err.Error(), "place the I/O element first") {
		t.Errorf("want east-side-pads error, got %v", err)
	}
}

// TestPassTimesRecorded checks the phase record's times, untraced and
// traced: every pass ran for a positive time, and the passes sum to at
// most the whole compile.
func TestPassTimesRecorded(t *testing.T) {
	for _, traced := range []bool{false, true} {
		ctx := context.Background()
		if traced {
			ctx = trace.WithTrace(ctx, trace.New())
		}
		chip, err := CompileCtx(ctx, testSpec(4), nil)
		if err != nil {
			t.Fatal(err)
		}
		ph := &chip.Phases
		for p := trace.PhaseCore; p < trace.PhaseTotal; p++ {
			if ph[p].Dur <= 0 {
				t.Errorf("traced=%v: phase %d time not recorded: %+v", traced, p, ph)
			}
		}
		var sum time.Duration
		for _, m := range ph[:trace.PhaseTotal] {
			sum += m.Dur
		}
		if sum > ph[trace.PhaseTotal].Dur {
			t.Errorf("traced=%v: passes sum to %v, more than the total %v", traced, sum, ph[trace.PhaseTotal].Dur)
		}
	}
}

func TestXferBridgesBuses(t *testing.T) {
	// A value driven on bus B must appear on bus A when the bridge's
	// control is active, and must not when it is idle.
	f, _ := decoder.ParseFormat("width 8; OP 0 4")
	spec := &Spec{
		Name: "bridge", Microcode: f, DataWidth: 4,
		Elements: []ElementSpec{
			{Kind: "registers", Name: "ra", Params: map[string]string{"ld": "OP=1", "rd": "OP=2"}},
			{Kind: "registers", Name: "rb", Params: map[string]string{"bus": "B", "ld": "OP=3", "rd": "OP=4"}},
			{Kind: "const", Name: "k", Params: map[string]string{"value": "5", "rd": "OP=6"}},
			{Kind: "xfer", Name: "x", Params: map[string]string{"x": "OP=7"}},
		},
	}
	chip := compileTest(t, spec, &Options{SkipPads: true})
	machine, err := chip.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	// k drives bus A; without the bridge, rb (bus B) must NOT load it.
	machine.Run([]uint64{6 | 0, 3 | 0}) // k->A, then rb loads B (idle B reads all-ones)
	rb := chip.Model("rb").(interface{ Value() uint64 })
	if rb.Value() != 0xF {
		t.Errorf("rb = %x, want F (idle precharged bus)", rb.Value())
	}
	// With the bridge active in the same cycle, rb sees k's value. One OP
	// value cannot fire both k.rd and x.x above, so the second chip gives
	// them overlapping guards on OP=7.
	spec2 := &Spec{
		Name: "bridge2", Microcode: f, DataWidth: 4,
		Elements: []ElementSpec{
			{Kind: "registers", Name: "rb", Params: map[string]string{"bus": "B", "ld": "OP=7", "rd": "OP=4"}},
			{Kind: "const", Name: "k", Params: map[string]string{"value": "5", "rd": "OP=7"}},
			{Kind: "xfer", Name: "x", Params: map[string]string{"x": "OP=7"}},
		},
	}
	chip2 := compileTest(t, spec2, &Options{SkipPads: true})
	m2, err := chip2.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	m2.Run([]uint64{7})
	rb2 := chip2.Model("rb").(interface{ Value() uint64 })
	if rb2.Value() != 5 {
		t.Errorf("bridged rb = %x, want 5", rb2.Value())
	}
}

func TestTextManualHierarchy(t *testing.T) {
	chip := compileTest(t, testSpec(4), nil)
	for _, want := range []string{
		"CHIP testchip", "1 Overview", "Instruction format",
		"Core elements", "Instruction decoder", "Pads", "Roto-Router",
	} {
		if !strings.Contains(chip.Text, want) {
			t.Errorf("manual missing %q", want)
		}
	}
	// Every column appears as a subsection.
	for _, col := range chip.Columns() {
		if !strings.Contains(chip.Text, " "+col.Name+"\n") {
			t.Errorf("manual missing element section for %s", col.Name)
		}
	}
}

func TestStatsPowerPositive(t *testing.T) {
	chip := compileTest(t, testSpec(8), &Options{SkipPads: true})
	if chip.Stats.PowerUA <= 0 {
		t.Error("no power accounted")
	}
	// Power grows with data width (more bit rows drawing current).
	wide := compileTest(t, testSpec(16), &Options{SkipPads: true})
	if wide.Stats.PowerUA <= chip.Stats.PowerUA {
		t.Errorf("power did not grow with width: %d -> %d",
			chip.Stats.PowerUA, wide.Stats.PowerUA)
	}
}

// TestAluOpsSequenced drives the ALU through real bus cycles for every op.
func TestAluOpsSequenced(t *testing.T) {
	for _, tc := range []struct {
		op   string
		a, b uint64
		want uint64
	}{
		{"add", 3, 4, 7},
		{"and", 6, 3, 2},
		{"or", 6, 3, 7},
		{"xor", 6, 3, 5},
		{"nand", 6, 3, 0xD},
	} {
		t.Run(tc.op, func(t *testing.T) {
			f, _ := decoder.ParseFormat("width 12; A 0 4; B 4 4; C 8 4")
			spec := &Spec{
				Name: "alu_" + tc.op, Microcode: f, DataWidth: 4,
				Elements: []ElementSpec{
					{Kind: "registers", Name: "ra", Params: map[string]string{"ld": "A=1", "rd": "A=2"}},
					{Kind: "registers", Name: "rb", Params: map[string]string{"bus": "B", "ld": "B=1", "rd": "B=2"}},
					{Kind: "alu", Name: "alu", Params: map[string]string{
						"lda": "C=1", "ldb": "C=2", "rd": "C=3", "op": tc.op}},
				},
			}
			chip := compileTest(t, spec, &Options{SkipPads: true})
			m, err := chip.NewSim()
			if err != nil {
				t.Fatal(err)
			}
			chip.Model("ra").(interface{ Set(uint64) }).Set(tc.a)
			chip.Model("rb").(interface{ Set(uint64) }).Set(tc.b)
			word := func(a, bb, c uint64) uint64 { return a | bb<<4 | c<<8 }
			m.Run([]uint64{
				word(2, 0, 1), // ra drives bus A; alu latches a
				word(0, 2, 2), // rb drives bus B; alu latches b
				word(1, 0, 3), // alu drives result on A; ra loads it
			})
			got := chip.Model("ra").(interface{ Value() uint64 }).Value()
			if got != tc.want {
				t.Errorf("%s(%d,%d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.want)
			}
		})
	}
}

// TestDualRegPipeline compiles a chip with the cross-bus pipeline register
// and runs data through it: a constant drives bus A, the pipeline register
// latches it, then drives it on bus B where a B-side register consumes it.
func TestDualRegPipeline(t *testing.T) {
	f, _ := decoder.ParseFormat("width 8; OP 0 4")
	spec := &Spec{
		Name: "pipeline", Microcode: f, DataWidth: 4,
		Elements: []ElementSpec{
			{Kind: "const", Name: "k", Params: map[string]string{"value": "11", "rd": "OP=1"}},
			{Kind: "dualreg", Name: "p", Params: map[string]string{"ld": "OP=1", "rd": "OP=2"}},
			{Kind: "registers", Name: "out", Params: map[string]string{"bus": "B", "ld": "OP=2", "rd": "OP=3"}},
		},
	}
	chip := compileTest(t, spec, nil)
	if vs := drc.Check(chip.Mask, layer.MeadConway(), &drc.Options{MaxViolations: 10}); len(vs) != 0 {
		t.Fatalf("DRC: %v", vs[0])
	}
	m, err := chip.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	m.Run([]uint64{
		1, // k drives 11 on bus A; p latches it (same word)
		2, // p drives 11 on bus B; out latches it
	})
	got := chip.Model("out").(interface{ Value() uint64 }).Value()
	if got != 11 {
		t.Errorf("pipeline delivered %d, want 11", got)
	}
	// The extracted netlist must match the declared one.
	ext, err := transistor.Extract(chip.Mask)
	if err != nil {
		t.Fatal(err)
	}
	if ext.GlobalSignature(nil) != chip.Netlist.GlobalSignature(nil) {
		t.Error("extraction mismatch on dualreg chip")
	}
}
