// Package experiments regenerates every figure and quantitative claim in
// the paper's evaluation (see EXPERIMENTS.md): Figures 1-3 and the prose
// claims T1 (area within ±10 % of hand layout), T2 (compile-time scaling),
// T3 (representation completeness), plus ablations A1-A5 for the design
// choices the paper motivates.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"bristleblocks/internal/baseline"
	"bristleblocks/internal/bus"
	"bristleblocks/internal/core"
	"bristleblocks/internal/decoder"
	"bristleblocks/internal/geom"
	"bristleblocks/internal/report"
	"bristleblocks/internal/trace"
)

// SuiteChip describes one benchmark chip.
type SuiteChip struct {
	Name  string
	Width int
	Elems int // register count knob (core size scales with it)
}

// Suite is the chip family every experiment sweeps.
var Suite = []SuiteChip{
	{"tiny", 4, 1},
	{"small", 4, 2},
	{"medium", 8, 3},
	{"wide", 16, 3},
	{"large", 16, 6},
	{"xl", 32, 6},
}

// SpecFor builds the specification for one suite chip: an I/O port, a bank
// of registers, an adder, a shifter, and a constant on two buses.
func SpecFor(sc SuiteChip) *core.Spec {
	f, err := decoder.ParseFormat("width 12; OP 0 4; SEL 4 3; EN 7 1")
	if err != nil {
		panic(err)
	}
	return &core.Spec{
		Name:      sc.Name,
		Microcode: f,
		DataWidth: sc.Width,
		Elements: []core.ElementSpec{
			{Kind: "ioport", Name: "io", Params: map[string]string{"io": "OP=1", "class": "io"}},
			{Kind: "registers", Name: "r", Params: map[string]string{
				"count": fmt.Sprint(sc.Elems), "ld": "OP=2 & SEL={i}", "rd": "OP=3 & SEL={i}"}},
			{Kind: "alu", Name: "alu", Params: map[string]string{
				"lda": "OP=4", "ldb": "OP=5", "rd": "OP=6", "op": "add"}},
			{Kind: "shifter", Name: "sh", Params: map[string]string{"ld": "OP=7", "rd": "OP=8"}},
			{Kind: "const", Name: "k1", Params: map[string]string{"value": "1", "rd": "OP=9"}},
		},
	}
}

func mustCompile(spec *core.Spec, opts *core.Options) *core.Chip {
	chip, err := core.Compile(spec, opts)
	if err != nil {
		panic(fmt.Sprintf("compile %s: %v", spec.Name, err))
	}
	return chip
}

// F1 reproduces Figure 1 (the physical chip format) as the compiled Block
// representation of the medium chip.
func F1() string {
	chip := mustCompile(SpecFor(Suite[2]), &core.Options{SkipPads: true})
	var sb strings.Builder
	sb.WriteString("F1: physical chip format (Figure 1) — pads around core + decoder\n\n")
	sb.WriteString(chip.Block)
	return sb.String()
}

// F2 reproduces Figure 2 (the logical chip format).
func F2() string {
	chip := mustCompile(SpecFor(Suite[2]), &core.Options{SkipPads: true})
	var sb strings.Builder
	sb.WriteString("F2: logical chip format (Figure 2) — buses through elements, decoder above\n\n")
	sb.WriteString(chip.Logical)
	return sb.String()
}

// F3 reproduces Figure 3 (the hierarchy of systems): the current compiler
// covers one region of "compiler space"; the sweep measures it — which
// chip configurations compile, across widths and element mixes.
func F3() string {
	widths := []int{2, 4, 8, 16, 32}
	mixes := []struct {
		name  string
		elems []core.ElementSpec
	}{
		{"reg-only", []core.ElementSpec{
			{Kind: "registers", Name: "r", Params: map[string]string{"count": "2", "ld": "OP=1 & SEL={i}", "rd": "OP=2 & SEL={i}"}},
		}},
		{"datapath", []core.ElementSpec{
			{Kind: "registers", Name: "r", Params: map[string]string{"count": "2", "ld": "OP=1 & SEL={i}", "rd": "OP=2 & SEL={i}"}},
			{Kind: "alu", Name: "alu", Params: map[string]string{"lda": "OP=4", "ldb": "OP=5", "rd": "OP=6"}},
		}},
		{"shifting", []core.ElementSpec{
			{Kind: "registers", Name: "r", Params: map[string]string{"count": "2", "ld": "OP=1 & SEL={i}", "rd": "OP=2 & SEL={i}"}},
			{Kind: "shifter", Name: "sh", Params: map[string]string{"ld": "OP=7", "rd": "OP=8"}},
		}},
		{"io-chip", []core.ElementSpec{
			{Kind: "ioport", Name: "io", Params: map[string]string{"io": "OP=1", "class": "io"}},
			{Kind: "registers", Name: "r", Params: map[string]string{"count": "2", "ld": "OP=2 & SEL={i}", "rd": "OP=3 & SEL={i}"}},
			{Kind: "const", Name: "k1", Params: map[string]string{"value": "5", "rd": "OP=9"}},
		}},
		{"pipeline", []core.ElementSpec{
			{Kind: "const", Name: "k", Params: map[string]string{"value": "3", "rd": "OP=1"}},
			{Kind: "dualreg", Name: "p", Params: map[string]string{"ld": "OP=1", "rd": "OP=2"}},
			{Kind: "registers", Name: "out", Params: map[string]string{"bus": "B", "ld": "OP=2", "rd": "OP=3"}},
		}},
		{"split-bus", nil}, // built below with a stopped bus
	}
	f, _ := decoder.ParseFormat("width 12; OP 0 4; SEL 4 3")

	tbl := report.New("F3: compiler-space coverage (Figure 3) — configurations compiled",
		"mix", "width", "compiles", "columns", "transistors")
	ok, total := 0, 0
	for _, mix := range mixes {
		for _, w := range widths {
			total++
			spec := &core.Spec{Name: "f3", Microcode: f, DataWidth: w, Elements: mix.elems}
			if mix.name == "split-bus" {
				spec.Elements = []core.ElementSpec{
					{Kind: "registers", Name: "ra", Params: map[string]string{"ld": "OP=1", "rd": "OP=2"}},
					{Kind: "registers", Name: "rb", Params: map[string]string{"ld": "OP=4", "rd": "OP=5"}},
				}
				spec.Buses = []bus.Spec{
					{Name: "A", From: 0, To: -1},
					{Name: "B1", From: 0, To: 0},
					{Name: "B2", From: 1, To: -1},
				}
			}
			chip, err := core.Compile(spec, &core.Options{SkipPads: true})
			if err != nil {
				tbl.Row(mix.name, w, "no: "+truncate(err.Error(), 30), "-", "-")
				continue
			}
			ok++
			tbl.Row(mix.name, w, "yes", chip.Stats.Columns, chip.Stats.Transistors)
		}
	}
	return tbl.String() + fmt.Sprintf("\ncoverage: %d/%d configurations compile\n", ok, total)
}

// T1 reproduces the headline area claim: "±10% of the area of a chip
// produced by hand using the structured design methodology".
func T1() string {
	tbl := report.New("T1: compiled core area vs hand-layout estimate (paper: ratio within 0.9..1.1)",
		"chip", "width", "columns", "compiled(sqλ)", "hand(sqλ)", "ratio")
	for _, sc := range Suite {
		chip := mustCompile(SpecFor(sc), &core.Options{SkipPads: true})
		comp := baseline.CompiledCoreArea(chip) / 16 // square lambda
		hand := baseline.Hand(chip).CoreArea / 16
		tbl.Row(sc.Name, sc.Width, chip.Stats.Columns, comp, hand, baseline.AreaRatio(chip))
	}
	return tbl.String()
}

// T2 reproduces the compile-time claim: "approximately 4 minutes to
// generate a small chip in all five of the current representations. The
// time needed to generate a fairly large chip should be in the
// neighborhood of 10-15 minutes" — a 2.5-3.75x ratio. Absolute times are
// hardware (PDP-10 then, this machine now); the shape is the ratio.
func T2() string {
	tbl := report.New("T2: compile time, all representations (paper: small 4 min, large 10-15 min; ratio 2.5-3.75x)",
		"chip", "width", "columns", "time", "vs-small")
	var base time.Duration
	for _, sc := range []SuiteChip{Suite[1], Suite[2], Suite[4], Suite[5]} {
		spec := SpecFor(sc)
		var best time.Duration
		var chip *core.Chip
		for i := 0; i < 3; i++ { // best-of-3 to damp scheduler noise
			chip = mustCompile(spec, nil)
			if dt := chip.Phases[trace.PhaseTotal].Dur; best == 0 || dt < best {
				best = dt
			}
		}
		if base == 0 {
			base = best
		}
		tbl.Row(sc.Name, sc.Width, chip.Stats.Columns, best.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", float64(best)/float64(base)))
	}
	return tbl.String()
}

// T3 reproduces the completeness claim: "the system produces a complete
// layout, sticks diagram, transistor diagram, logic diagram, and block
// diagram" (5 of 7; simulation and text were hooked but deferred — this
// reproduction completes them).
func T3() string {
	tbl := report.New("T3: representation completeness (paper produced 5 of 7; this reproduction 7 of 7)",
		"chip", "layout", "sticks", "transistors", "logic", "text", "simulation", "block")
	for _, sc := range Suite[:4] {
		chip := mustCompile(SpecFor(sc), &core.Options{SkipPads: true})
		has := func(b bool) string {
			if b {
				return "yes"
			}
			return "no"
		}
		_, simErr := chip.NewSim()
		tbl.Row(sc.Name,
			has(chip.Mask != nil && len(chip.Mask.Boxes)+len(chip.Mask.Insts) > 0),
			has(chip.Sticks != nil && len(chip.Sticks.Segs) > 0),
			has(chip.Netlist != nil && len(chip.Netlist.Txs) > 0),
			has(chip.Logic != nil && len(chip.Logic.Gates) > 0),
			has(len(chip.Text) > 0),
			has(simErr == nil),
			has(len(chip.Block) > 0))
	}
	return tbl.String()
}

// A1 is the stretchable-cells ablation: the hand alternative pays routing
// channels wherever pitches disagree, and the fixed-width alternative pays
// cell redesigns as the design grows.
func A1() string {
	tbl := report.New("A1: stretchable cells vs alternatives (Pass 1 design rationale)",
		"chip", "stretch(sqλ)", "hand+channels(sqλ)", "channels", "fixed-width redesigns")
	for _, sc := range Suite {
		chip := mustCompile(SpecFor(sc), &core.Options{SkipPads: true})
		h := baseline.Hand(chip)
		fixed, _ := baseline.RedesignCounts(chip)
		tbl.Row(sc.Name, baseline.CompiledCoreArea(chip)/16, h.CoreArea/16, h.Channels, fixed)
	}
	return tbl.String()
}

// A2 is the Roto-Router and pad-placement ablation: total pad-wire length
// with the rotation optimization versus rotation 0 and the worst rotation;
// whether the single-layer router can close the ring at all when the
// rotation is pinned to 0; and the paper's user-selectable even spacing
// versus the default pulled placement.
func A2() string {
	tbl := report.New("A2: Roto-Router pad rotation and spacing mode (Pass 3)",
		"chip", "roto(λ)", "naive(λ)", "worst(λ)", "naive/roto", "routed(λ)", "even(λ)", "routes@rot0")
	for _, sc := range Suite[:4] {
		chip := mustCompile(SpecFor(sc), nil)
		r := chip.Ring
		ratio := float64(r.NaiveLen) / float64(r.EstimatedLen)
		routes0 := "yes"
		if _, err := core.Compile(SpecFor(sc), &core.Options{SkipRotoRouter: true}); err != nil {
			routes0 = "no"
		}
		even := "unroutable"
		if ec, err := core.Compile(SpecFor(sc), &core.Options{EvenPads: true}); err == nil {
			even = fmt.Sprint(int(geom.InLambda(ec.Ring.TotalWireLen)))
		}
		tbl.Row(sc.Name, int(geom.InLambda(r.EstimatedLen)), int(geom.InLambda(r.NaiveLen)),
			int(geom.InLambda(r.WorstLen)), fmt.Sprintf("%.2fx", ratio),
			int(geom.InLambda(r.TotalWireLen)), even, routes0)
	}
	return tbl.String()
}

// RedundantSpecFor is SpecFor with the guards written the way a designer
// naturally writes them — as unions of opcodes — rather than pre-minimized:
// "OP=4 | OP=5" is one don't-care term after optimization, and several
// elements share the same product terms. This is the input the paper's
// "generated and optimized the instruction decoder" step exists for.
func RedundantSpecFor(sc SuiteChip) *core.Spec {
	spec := SpecFor(sc)
	spec.Elements[1].Params["ld"] = "(OP=2 | OP=3) & SEL={i}"   // 0010/0011 merge
	spec.Elements[1].Params["rd"] = "(OP=12 | OP=13) & SEL={i}" // 1100/1101 merge
	spec.Elements[2].Params["lda"] = "OP=4 | OP=5"              // 0100/0101 merge
	spec.Elements[2].Params["ldb"] = "OP=6 | OP=7"              // 0110/0111 merge
	spec.Elements[3].Params["ld"] = "OP=4 | OP=5"               // shared with alu.lda
	spec.Elements[4].Params["rd"] = "OP=6 | OP=7"               // shared with alu.ldb
	return spec
}

// A3 is the decoder-optimization ablation: PLA terms and decoder area with
// and without the text-array optimizer.
func A3() string {
	tbl := report.New("A3: decoder optimization (Pass 2 'generated and optimized')",
		"chip", "terms raw", "terms opt", "literals raw", "literals opt", "decoder area raw(sqλ)", "opt(sqλ)")
	for _, sc := range Suite[:4] {
		raw := mustCompile(RedundantSpecFor(sc), &core.Options{SkipPads: true, SkipOptimize: true})
		opt := mustCompile(RedundantSpecFor(sc), &core.Options{SkipPads: true})
		tbl.Row(sc.Name,
			raw.Stats.DecoderOpt.TermsBefore, opt.Stats.PLATerms,
			raw.Stats.DecoderOpt.LiteralsBefore, opt.Stats.DecoderOpt.LiteralsAfter,
			raw.Decoder.Layout.Cell.Size.Area()/16, opt.Decoder.Layout.Cell.Size.Area()/16)
	}
	return tbl.String()
}

// A4 is the conditional-assembly experiment: the PROTOTYPE global adds a
// debug port; production reclaims its pads and area.
func A4() string {
	tbl := report.New("A4: conditional assembly (PROTOTYPE debug port)",
		"variant", "columns", "pads", "chip area(sqλ)")
	for _, proto := range []bool{true, false} {
		spec := SpecFor(Suite[1])
		spec.Elements = append([]core.ElementSpec{{
			Kind: "ioport", Name: "dbg", OnlyIf: "PROTOTYPE",
			Params: map[string]string{"io": "OP=10", "class": "output"},
		}}, spec.Elements[1:]...) // debug port replaces the io element at the west end
		spec.Globals = map[string]bool{"PROTOTYPE": proto}
		chip := mustCompile(spec, nil)
		name := "production"
		if proto {
			name = "PROTOTYPE"
		}
		tbl.Row(name, chip.Stats.Columns, chip.Stats.PadCount, chip.Stats.ChipBounds.Area()/16)
	}
	return tbl.String()
}

// A5 is the smart-cell variant experiment: constant cells choose the
// minimum-area layout per bit value, so an all-ones constant column is
// narrower than one containing zeros.
func A5() string {
	tbl := report.New("A5: smart-cell variant selection (constant element)",
		"constant", "column width(λ)", "core width(λ)")
	for _, v := range []string{"15", "0", "9"} { // all ones, all zeros, mixed (4-bit)
		spec := SpecFor(Suite[1])
		spec.Elements[4].Params["value"] = v
		chip := mustCompile(spec, &core.Options{SkipPads: true})
		var kw geom.Coord
		for _, col := range chip.Columns() {
			if col.Name == "k1" {
				kw = col.Width
			}
		}
		tbl.Row("value="+v, int(geom.InLambda(kw)), int(geom.InLambda(chip.Stats.CoreBounds.W())))
	}
	return tbl.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
