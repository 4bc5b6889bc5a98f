// Package specgen generates random-but-valid chip specifications for
// property-based testing. The paper's claim — every element carries seven
// consistent representations of the same chip — is only as strong as the
// variety of chips it is checked against; specgen turns "a handful of
// hand-written examples" into an unbounded, reproducible family: random
// datapath widths, element mixes from the compiler's kind registry, bus
// segmentations, pad flavors, conditional-assembly globals, and physical
// lambda overrides.
//
// Generation is deterministic: all randomness comes from the caller's
// *rand.Rand, so a seed fully identifies a spec (FromSeed) and a failing
// case reproduces exactly. Every generated spec passes core.Spec.Validate,
// survives the desc round trip, and compiles (the package tests pin all
// three properties).
package specgen

import (
	"fmt"
	"math/rand"

	"bristleblocks/internal/bus"
	"bristleblocks/internal/core"
	"bristleblocks/internal/decoder"
)

// Config bounds the generator.
type Config struct {
	// MaxExtraElements bounds the elements generated after the mandatory
	// first one (<=0 selects 4).
	MaxExtraElements int
	// ForPads keeps the spec safe for a full three-pass compile: I/O ports
	// are placed only at the west end (an east-side port requires the core
	// to be at least as wide as the decoder, which a random spec cannot
	// promise). Without it, specs target SkipPads compiles and may place a
	// mirrored I/O port at the east end too. ForPads specs also stress the
	// pad ring itself: some draw the pathological shapes (a single-port
	// core much narrower than its decoder, a core at the extra-element
	// ceiling) and some select the paper's evenly-spaced pad mode.
	ForPads bool
}

func (c *Config) maxExtra() int {
	if c == nil || c.MaxExtraElements <= 0 {
		return 4
	}
	return c.MaxExtraElements
}

func (c *Config) forPads() bool { return c != nil && c.ForPads }

// FromSeed generates the spec identified by seed.
func FromSeed(seed int64, cfg *Config) *core.Spec {
	return Generate(rand.New(rand.NewSource(seed)), cfg)
}

// Generate builds one random valid chip specification, drawing all
// randomness from r.
func Generate(r *rand.Rand, cfg *Config) *core.Spec {
	g := &gen{r: r, cfg: cfg}
	return g.spec()
}

type gen struct {
	r   *rand.Rand
	cfg *Config
	// hasEN records whether the microcode format carries the optional EN
	// field, so guards may reference it.
	hasEN bool
	// hasOP2 records whether the format carries the second decode field
	// OP2, so guards may mix terms from two opcode groups.
	hasOP2 bool
	// explicitBuses commits this spec to a generated bus segmentation.
	explicitBuses bool
	// globalNames is the ordered list of conditional-assembly globals the
	// spec declares; onlyIf draws from it by index so generation stays
	// deterministic (Go map iteration order is not).
	globalNames []string
}

func (g *gen) intn(n int) int { return g.r.Intn(n) }

// chance reports true with probability num/den.
func (g *gen) chance(num, den int) bool { return g.r.Intn(den) < num }

func (g *gen) spec() *core.Spec {
	spec := &core.Spec{
		Name:      fmt.Sprintf("gen%04d", g.intn(10000)),
		Microcode: g.microcode(),
		DataWidth: g.dataWidth(),
	}
	// Physical lambda override: most chips use the default 2.5 µm process;
	// some carry a finer or coarser one (the CIF scale must not leak into
	// any other representation).
	if g.chance(1, 4) {
		spec.LambdaCentimicrons = []int{100, 200, 300}[g.intn(3)]
	}
	g.explicitBuses = g.chance(1, 2)
	// Conditional assembly: a PROTO global — sometimes joined by the
	// paper's PROTOTYPE — plus guarded elements. The first element is
	// always unguarded so assembly never empties the core. Explicit buses
	// and globals now coexist: bus ranges index the post-assembly element
	// list, and the globals' values are known here, so buses() partitions
	// over the enabled-element count.
	if g.chance(3, 10) {
		spec.Globals = map[string]bool{"PROTO": g.chance(1, 2)}
		g.globalNames = []string{"PROTO"}
		if g.chance(1, 3) {
			spec.Globals["PROTOTYPE"] = g.chance(1, 2)
			g.globalNames = append(g.globalNames, "PROTOTYPE")
		}
	}
	// Pad placement mode: some chips space their pads evenly around the
	// ring (the paper's alternative to pulling pads toward their
	// connection points).
	if g.chance(1, 5) {
		spec.EvenPads = true
	}
	g.elements(spec)
	g.buses(spec)
	return spec
}

// microcode builds the instruction format: OP and SEL always (the guard
// vocabulary), EN sometimes, and sometimes a second decode field OP2 —
// the multi-decoder shape, where guards mix terms from two opcode
// groups — inside a word wide enough for the fields plus random slack.
func (g *gen) microcode() *decoder.Format {
	f := &decoder.Format{
		Fields: []decoder.Field{
			{Name: "OP", Lo: 0, Width: 4},
			{Name: "SEL", Lo: 4, Width: 2 + g.intn(2)}, // 2 or 3 bits
		},
	}
	if g.chance(1, 2) {
		lo := f.Fields[len(f.Fields)-1].Lo + f.Fields[len(f.Fields)-1].Width
		f.Fields = append(f.Fields, decoder.Field{Name: "EN", Lo: lo, Width: 1})
		g.hasEN = true
	}
	if g.chance(1, 3) {
		lo := f.Fields[len(f.Fields)-1].Lo + f.Fields[len(f.Fields)-1].Width
		f.Fields = append(f.Fields, decoder.Field{Name: "OP2", Lo: lo, Width: 3})
		g.hasOP2 = true
	}
	end := f.Fields[len(f.Fields)-1].Lo + f.Fields[len(f.Fields)-1].Width
	f.Width = end + g.intn(6) // fields + 0..5 bits of slack
	if f.Width < 10 {
		f.Width = 10
	}
	return f
}

func (g *gen) dataWidth() int {
	widths := []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 16}
	return widths[g.intn(len(widths))]
}

// op returns a single-field guard term.
func (g *gen) op() string { return fmt.Sprintf("OP=%d", 1+g.intn(14)) }

// op2 returns a single-field guard term over the second decode field.
func (g *gen) op2() string { return fmt.Sprintf("OP2=%d", 1+g.intn(7)) }

// guard returns a random decode expression over the microcode fields.
func (g *gen) guard() string {
	n := 5
	if g.hasEN {
		n++
	}
	if g.hasOP2 {
		n += 2
	}
	switch k := g.intn(n); {
	case k == 0:
		return g.op()
	case k == 1:
		return "(" + g.op() + " | " + g.op() + ")"
	case k == 2:
		return g.op() + " & SEL={i}"
	case k == 3:
		return "!" + g.op() + " & " + g.op()
	case k == 4:
		return fmt.Sprintf("OP=%d & SEL=%d", 1+g.intn(14), g.intn(4))
	case g.hasEN && k == 5:
		return g.op() + " & EN=1"
	case g.chance(1, 2):
		// Cross-decoder product: a term from each opcode group.
		return g.op() + " & " + g.op2()
	default:
		return "(" + g.op() + " | " + g.op2() + ")"
	}
}

// onlyIf returns a conditional-assembly guard (or "" when the spec carries
// no globals). Applied only to non-first elements. The global is drawn
// from the ordered globalNames list, never the map, so generation stays
// deterministic.
func (g *gen) onlyIf(spec *core.Spec) string {
	if len(spec.Globals) == 0 || !g.chance(1, 4) {
		return ""
	}
	name := g.globalNames[g.intn(len(g.globalNames))]
	if g.chance(1, 2) {
		return name
	}
	return "!" + name
}

// elements fills the element list: a west-end anchor (registers or an I/O
// port), a random middle mix, and sometimes an east-end mirrored I/O port.
// ForPads specs occasionally take a pathological pad-ring shape instead:
// a lone I/O port (the ring around a core far narrower than its decoder)
// or a core pinned at the extra-element ceiling (maximum ring perimeter
// and net fan-out).
func (g *gen) elements(spec *core.Spec) {
	extras := g.intn(g.cfg.maxExtra() + 1)
	if g.cfg.forPads() {
		switch g.intn(8) {
		case 0:
			// Minimal ring: one port, nothing else. The decoder dominates
			// the floorplan and every pad crowds the west edge.
			spec.Elements = append(spec.Elements, g.ioport("io"))
			return
		case 1:
			extras = g.cfg.maxExtra()
		}
	}
	// West end: an I/O port one time in five, a register bank otherwise.
	if g.chance(1, 5) {
		spec.Elements = append(spec.Elements, g.ioport("io"))
	} else {
		spec.Elements = append(spec.Elements, core.ElementSpec{
			Kind: "registers", Name: "r",
			Params: map[string]string{
				"count": fmt.Sprint(1 + g.intn(3)),
				"ld":    g.guard(), "rd": g.guard(),
			},
		})
	}
	for i := 0; i < extras; i++ {
		e := g.middleElement(fmt.Sprintf("e%d", i), spec)
		e.OnlyIf = g.onlyIf(spec)
		spec.Elements = append(spec.Elements, e)
	}
	// East end: a mirrored I/O port, only for SkipPads targets (Pass 3
	// rejects east-side pads on a core narrower than the decoder) and only
	// when the west end is not already a port.
	if !g.cfg.forPads() && spec.Elements[0].Kind != "ioport" && g.chance(1, 6) {
		spec.Elements = append(spec.Elements, g.ioport("oe"))
	}
}

func (g *gen) ioport(name string) core.ElementSpec {
	classes := []string{"input", "output", "io"}
	return core.ElementSpec{
		Kind: "ioport", Name: name,
		Params: map[string]string{
			"io":    g.op(),
			"class": classes[g.intn(len(classes))],
		},
	}
}

func (g *gen) middleElement(name string, spec *core.Spec) core.ElementSpec {
	switch g.intn(6) {
	case 0:
		ops := []string{"add", "and", "or", "xor", "nand"}
		return core.ElementSpec{
			Kind: "alu", Name: name,
			Params: map[string]string{
				"lda": g.op(), "ldb": g.op(), "rd": g.op(),
				"op": ops[g.intn(len(ops))],
			},
		}
	case 1:
		return core.ElementSpec{
			Kind: "shifter", Name: name,
			Params: map[string]string{"ld": g.op(), "rd": g.op()},
		}
	case 2:
		maxBits := spec.DataWidth
		if maxBits > 8 {
			maxBits = 8
		}
		return core.ElementSpec{
			Kind: "const", Name: name,
			Params: map[string]string{
				"value": fmt.Sprint(g.intn(1 << maxBits)),
				"rd":    g.op(),
			},
		}
	case 3:
		return core.ElementSpec{
			Kind: "xfer", Name: name,
			Params: map[string]string{"x": g.op()},
		}
	case 4:
		p := map[string]string{"ld": g.guard(), "rd": g.guard()}
		if g.chance(1, 3) {
			p["count"] = fmt.Sprint(1 + g.intn(2))
		}
		return core.ElementSpec{Kind: "dualreg", Name: name, Params: p}
	default:
		p := map[string]string{"ld": g.guard(), "rd": g.guard()}
		if g.chance(1, 2) {
			p["bus"] = "B"
		}
		if g.chance(1, 3) {
			p["count"] = fmt.Sprint(1 + g.intn(3))
		}
		return core.ElementSpec{Kind: "registers", Name: name, Params: p}
	}
}

// buses leaves half the specs on the default two full-length buses and
// segments the rest: each of the two slots is partitioned into covering
// intervals with unique names, so every element still sees two buses (the
// simulation models require their bus nets to exist) while the planner's
// slot assignment, precharge insertion, and segment naming all vary.
// Ranges index the post-conditional-assembly element list, so the
// partition covers the enabled-element count — computable here because
// the globals' values are fixed at generation time.
func (g *gen) buses(spec *core.Spec) {
	if !g.explicitBuses {
		return // default buses A and B
	}
	n := 0
	for _, e := range spec.Elements {
		if e.Enabled(spec.Globals) {
			n++
		}
	}
	names := []string{"A", "B", "C", "D", "E", "F"}
	next := 0
	addPartition := func(parts int) {
		if parts > n {
			parts = n
		}
		// Random ascending cut points partition [0, n-1] into parts
		// intervals.
		cuts := make([]int, 0, parts-1)
		for len(cuts) < parts-1 {
			c := 1 + g.intn(n-1)
			dup := false
			for _, p := range cuts {
				if p == c {
					dup = true
				}
			}
			if !dup {
				cuts = append(cuts, c)
			}
		}
		for i := 0; i < len(cuts); i++ {
			for j := i + 1; j < len(cuts); j++ {
				if cuts[j] < cuts[i] {
					cuts[i], cuts[j] = cuts[j], cuts[i]
				}
			}
		}
		from := 0
		for _, c := range append(cuts, n) {
			to := c - 1
			if c == n && g.chance(1, 2) {
				to = -1 // exercise the run-to-the-end form
			}
			spec.Buses = append(spec.Buses, bus.Spec{Name: names[next], From: from, To: to})
			next++
			from = c
		}
	}
	addPartition(1 + g.intn(2)) // slot one: 1..2 segments
	addPartition(1 + g.intn(3)) // slot two: 1..3 segments
}
