package core

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"

	"bristleblocks/internal/obs"

	"bristleblocks/internal/bus"
	"bristleblocks/internal/cell"
	"bristleblocks/internal/celllib"
	"bristleblocks/internal/decoder"
	"bristleblocks/internal/geom"
	"bristleblocks/internal/incr"
	"bristleblocks/internal/layer"
	"bristleblocks/internal/logic"
	"bristleblocks/internal/mask"
	"bristleblocks/internal/pads"
	"bristleblocks/internal/pool"
	"bristleblocks/internal/power"
	"bristleblocks/internal/sim"
	"bristleblocks/internal/sticks"
	"bristleblocks/internal/stretch"
	"bristleblocks/internal/trace"
	"bristleblocks/internal/transistor"
)

// Options tunes a compilation (the ablation switches feed EXPERIMENTS.md).
type Options struct {
	// SkipOptimize disables decoder optimization (A3).
	SkipOptimize bool
	// SkipMinimize keeps the seed decoder optimizer but disables the
	// Espresso-style minimization pass. Ignored when SkipOptimize is set.
	SkipMinimize bool
	// SkipRotoRouter pins pad rotation 0 (A2).
	SkipRotoRouter bool
	// EvenPads places the pads at the exact even division of the ring
	// perimeter (the paper's user option) instead of pulled toward their
	// connection points.
	EvenPads bool
	// SkipPads stops after Pass 2 (no pad ring), for core-level tests.
	SkipPads bool
	// Representations: when false (default) all representations are
	// produced; set SkipExtraReps to produce only the layout, for callers
	// that return nothing else (CIF-only edit-session compiles, bristlec
	// -watch, the T2 timing ablation). Stats is the same either way.
	SkipExtraReps bool
	// Parallelism bounds the worker pools of Pass 1's element fan-out and
	// Pass 3's rip-up ladder race: 0 (the default) selects GOMAXPROCS, 1
	// runs the serial paths. The compiled chip is byte-identical at every
	// setting — Pass 1's fan-in reassembles in column order, and the
	// ladder race returns the lowest-index (moat, strategy) combo that
	// routes — so this knob is deliberately excluded from the compile
	// cache key.
	Parallelism int
}

// Stats summarizes the compiled chip.
type Stats struct {
	Pitch       geom.Coord
	CoreBounds  geom.Rect
	ChipBounds  geom.Rect
	Columns     int
	CellsPlaced int
	Transistors int
	Controls    int
	PLATerms    int
	PadCount    int
	WireLen     geom.Coord
	PowerUA     int
	DecoderOpt  decoder.OptStats

	// PLA minimization results (Fast Pass 2): term rows before and after
	// the full Pass 2 optimizer pipeline, and the PLA area (λ²) the shrink
	// bought. Exported as bbd_pla_* gauges.
	PlaTermsBefore      int
	PlaTermsAfter       int
	PlaAreaSavedLambda2 float64

	// Per-pass build counters: what the compiler actually did, exported as
	// compiler-core gauges on the daemon's /metrics endpoint. All are
	// deterministic for a given (spec, options) pair at every Parallelism.
	CellsGenerated        int // distinct cell designs emitted by Pass 1's fan-out
	StretchesApplied      int // distinct cells whose geometry the pitch fit actually moved
	StretchDistanceLambda int // total λ of stretch inserted across all distinct cells
	BusBreaks             int // isolation columns inserted at bus segment boundaries
	ControlJoins          int // poly fillers joining core control/clock lines to the decoder
	PadRequests           int // connection points handed to Pass 3's Roto-Router

	// Pass 3 routing counters (pads.RouteStats), deterministic for a given
	// (spec, options) pair at every pool size.
	RouteNets          int64 // routing units routed across all rip-up attempts
	RouteCellsExpanded int64 // cells the searches expanded
	RouteFrontierPeak  int64 // widest frontier any search reached
	// RouteConflicts and RouteRetries are always 0: Pass 3 routes
	// serially, so no route is ever discarded or retried. They stay only
	// because bbdbench's per-layer replay still reads them, and go with
	// that replay.
	RouteConflicts int64
	RouteRetries   int64
}

// Chip is the compilation result carrying all representations.
type Chip struct {
	Spec    *Spec
	Options Options

	// Mask is the Layout representation: the full chip.
	Mask *mask.Cell
	// CoreMask is the core alone (pass 1's output).
	CoreMask *mask.Cell
	// Decoder is pass 2's result.
	Decoder *decoder.Result
	// Ring is pass 3's result (nil with SkipPads).
	Ring *pads.Ring

	// Sticks, Netlist, Logic, Text are the other representations.
	Sticks  *sticks.Diagram
	Netlist *transistor.Netlist
	Logic   *logic.Diagram
	Text    string

	// Block and Logical are the Block-level diagrams (Figures 1 and 2).
	Block   string
	Logical string

	Stats Stats

	// Phases is the compile's one measurement of each pass: wall clock
	// and allocations (see trace.Phases). Unlike Stats it is
	// nondeterministic, excluded from caching and differential comparison.
	Phases trace.Phases

	columns []*column
	plan    *bus.Plan

	// p2Key is the decoder build's content address (set by controlPass even
	// without a store attached); CompiledDecoderLogic keys off it.
	p2Key string

	gndTrunkAt, vddTrunkAt geom.Point
}

// Version identifies the compiler for content-addressed caching: any
// change that can alter the compiled output for the same (spec, options)
// pair must bump it, or cache layers will serve stale results.
const Version = "bristleblocks-10"

// Compile runs the three-pass silicon compiler on the specification.
func Compile(spec *Spec, opts *Options) (*Chip, error) {
	return CompileCtx(context.Background(), spec, opts)
}

// CompileCtx is Compile with cancellation: the context is checked between
// passes and inside Pass 1's fan-out, so a canceled or timed-out caller
// gets its worker back without waiting for all three passes. A
// trace.Trace attached to the context receives one span per pass, per
// element generation, and per cell stretch.
func CompileCtx(ctx context.Context, spec *Spec, opts *Options) (*Chip, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	chip := &Chip{Spec: spec, Options: *opts}
	tr := trace.FromContext(ctx)
	log := obs.Logger(ctx)
	// Each pass runs in one phase bracket, which fills chip.Phases and the
	// pass span from the same readings. The glue between brackets must not
	// allocate: the runtime counts small allocations when a cached span is
	// refilled, so a glue allocation can flush counts a pass left pending
	// into the unattributed remainder. So span attributes are built only
	// when traced, and the debug lines (which box their arguments) only
	// when debug is on.
	debug := log.Enabled(ctx, slog.LevelDebug)
	ph := &chip.Phases

	// The root span covers the whole compile; pass spans hang under it so
	// the exported tree reads compile → pass.core → gen.*/stretch.*. A
	// failed pass's bracket still closes, and the defer ends the root
	// (untagged), so a failed compile's flight record shows where the time
	// went.
	total := tr.StartPhase(nil, "compile", trace.PassCompile, &ph[trace.PhaseTotal])
	root := total.Span.Attr("chip", spec.Name)
	if link, ok := tr.Link(); ok {
		// The compile joined a distributed trace (a traceparent header
		// reached the daemon); stamp the id so exported spans correlate.
		root.Attr("trace_id", link.Self.TraceIDString())
	}
	defer root.End()

	// ---- Pass 1: core layout.
	b := tr.StartPhase(root, "pass.core", trace.PassCore, &ph[trace.PhaseCore])
	err := chip.corePass(trace.WithSpan(ctx, b.Span))
	if b.Span != nil {
		b.Span.Attr("columns", strconv.Itoa(len(chip.columns)))
	}
	b.End()
	if err != nil {
		return nil, fmt.Errorf("core pass: %w", err)
	}
	if debug {
		log.Debug("core pass complete", "pass", "core",
			"columns", len(chip.columns),
			"cells_generated", chip.Stats.CellsGenerated,
			"bus_breaks", chip.Stats.BusBreaks,
			"pitch_lambda", geom.InLambda(chip.Stats.Pitch),
			"dur", ph[trace.PhaseCore].Dur)
	}

	// ---- Pass 2: control design.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	b = tr.StartPhase(root, "pass.control", trace.PassControl, &ph[trace.PhaseControl])
	err = chip.controlPass(trace.WithSpan(ctx, b.Span))
	if b.Span != nil {
		b.Span.Attr("pla_terms", strconv.Itoa(chip.Stats.PLATerms))
	}
	b.End()
	if err != nil {
		return nil, fmt.Errorf("control pass: %w", err)
	}
	if debug {
		log.Debug("control pass complete", "pass", "control",
			"controls", chip.Stats.Controls,
			"pla_terms", chip.Stats.PLATerms,
			"control_joins", chip.Stats.ControlJoins,
			"dur", ph[trace.PhaseControl].Dur)
	}

	// ---- Pass 3: pad layout.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if !opts.SkipPads {
		b = tr.StartPhase(root, "pass.pads", trace.PassPads, &ph[trace.PhasePads])
		err = chip.padPass(trace.WithSpan(ctx, b.Span))
		if b.Span != nil {
			b.Span.Attr("pad_requests", strconv.Itoa(chip.Stats.PadRequests)).
				Attr("route_nets", strconv.FormatInt(chip.Stats.RouteNets, 10)).
				Attr("route_cells_expanded", strconv.FormatInt(chip.Stats.RouteCellsExpanded, 10))
		}
		b.End()
		if err != nil {
			return nil, fmt.Errorf("pad pass: %w", err)
		}
		if debug {
			log.Debug("pad pass complete", "pass", "pads",
				"pads", chip.Stats.PadCount,
				"pad_requests", chip.Stats.PadRequests,
				"wire_lambda", geom.InLambda(chip.Stats.WireLen),
				"dur", ph[trace.PhasePads].Dur)
		}
	}

	// Remaining representations.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	// fillStats measures the chip's bounding box, whose memo allocates,
	// so it runs inside the representations bracket.
	if !opts.SkipExtraReps {
		b = tr.StartPhase(root, "pass.representations", trace.PassReps, &ph[trace.PhaseReps])
		chip.buildRepresentations()
		chip.fillStats()
		b.End()
	} else {
		chip.fillStats()
	}
	total.End()
	return chip, nil
}

// CoreOnly runs Pass 1 alone and returns the chip with its core layout,
// columns, pitch, and power statistics filled in — the seam the Pass 1
// benchmarks measure, also useful for pitch and power estimation without
// paying for the decoder and pad ring.
func CoreOnly(ctx context.Context, spec *Spec, opts *Options) (*Chip, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	chip := &Chip{Spec: spec, Options: *opts}
	if err := chip.corePass(ctx); err != nil {
		return nil, fmt.Errorf("core pass: %w", err)
	}
	return chip, nil
}

// enabledElements applies conditional assembly to the element list.
func (c *Chip) enabledElements() []ElementSpec {
	var out []ElementSpec
	for _, e := range c.Spec.Elements {
		if e.Enabled(c.Spec.Globals) {
			out = append(out, e)
		}
	}
	return out
}

// corePass implements Pass 1: "after all of the elements vote on the
// values of global parameters, each element is executed in turn, resulting
// in a hierarchy of cells which implement the core of the chip", followed
// by stretching every cell to the common pitch and aligned bus offsets.
//
// The pass is structured as fan-out / barrier / fan-in, exploiting the
// embarrassingly parallel shape the paper describes:
//
//   - fan-out: each element generates its columns (and the precharge
//     columns heading its bus segments) independently, on a bounded
//     worker pool that honors context cancellation;
//   - barrier: the elements "vote on the values of global parameters" —
//     the accumulated power budget sizes the rails, which fixes the
//     common pitch and the chip-standard bus offsets;
//   - fan-in: every distinct cell is stretched to that pitch (again on
//     the pool — cells are independent copies), then the core is
//     assembled serially in column order.
//
// Because the fan-out writes results into per-element slots and the
// fan-in reassembles in column order, the compiled core is byte-identical
// to the serial (Parallelism=1) run at any pool size.
func (c *Chip) corePass(ctx context.Context) error {
	spec := c.Spec
	tr := trace.FromContext(ctx)
	passSpan := trace.SpanFromContext(ctx)
	elems := c.enabledElements()
	if len(elems) == 0 {
		return fmt.Errorf("conditional assembly removed every element")
	}

	// Bus planning at element granularity.
	plan, err := bus.Build(spec.busSpecs(), len(elems))
	if err != nil {
		return err
	}
	c.plan = plan

	// Precharge columns go just after their segment-head element (anywhere
	// inside the segment is electrically equivalent, and this keeps I/O
	// elements on the core boundary); index the sites by element so each
	// fan-out task can generate its own.
	preSites := plan.PrechargeSites()
	preByElem := make(map[int][]bus.Segment, len(preSites))
	for _, seg := range preSites {
		preByElem[seg.From] = append(preByElem[seg.From], seg)
	}

	// ---- Fan-out: generate every element's columns concurrently. Each
	// task owns slot i of perElem, so the barrier can concatenate in
	// element order and reproduce the serial column sequence exactly. With
	// an artifact store on the context, each task first consults the store
	// under the element's content address and reuses the cached columns
	// (cloned: private column structs and models over shared immutable
	// cells) instead of regenerating.
	store := incr.FromContext(ctx)
	workers := pool.Size(c.Options.Parallelism, len(elems))
	perElem := make([][]*column, len(elems))
	perElemKey := make([]string, len(elems))
	err = pool.RunIndexed(ctx, workers, len(elems), func(worker, i int) error {
		e := elems[i]
		var sp *trace.Active
		if tr != nil { // untraced: build no span name
			sp = tr.StartSpan(passSpan, "gen."+e.Name, trace.PassCore, worker).
				Attr("kind", e.Kind)
		}
		defer sp.End()
		busA, busB := busNamesAt(plan, i)
		if store != nil {
			var prevA, prevB string
			if i > 0 {
				prevA, prevB = busNamesAt(plan, i-1)
			}
			perElemKey[i] = genKeyFor(spec, &e, i, len(elems), busA, busB, prevA, prevB, preByElem[i])
			if v, ok := store.Get(perElemKey[i]); ok {
				perElem[i] = cloneColumns(v.(*genArtifact).cols)
				sp.Attr("cache", "hit")
				return nil
			}
			sp.Attr("cache", "miss")
		}
		gctx := &genCtx{
			width: spec.DataWidth, busA: busA, busB: busB,
			elemIdx: i, first: i == 0, last: i == len(elems)-1,
		}
		gen := elementKinds[e.Kind]
		ecols, err := gen(&e, gctx)
		if err != nil {
			return fmt.Errorf("element %d (%s): %w", i, e.Name, err)
		}
		// Segment boundary: when either bus slot changes segments between
		// the previous element and this one, a break column keeps the
		// abutting bus lines electrically separate.
		if i > 0 {
			prevA, prevB := busNamesAt(plan, i-1)
			if prevA != busA || prevB != busB {
				brk, err := genBusBreak(prevA, busA, prevB, busB, spec.DataWidth, i)
				if err != nil {
					return fmt.Errorf("element %d (%s): bus break: %w", i, e.Name, err)
				}
				ecols = append([]*column{brk}, ecols...)
			}
		}
		for _, seg := range preByElem[i] {
			pa, pb := busA, busB
			if seg.Slot == bus.Upper {
				pa = seg.Name
			} else {
				pb = seg.Name
			}
			pc, err := genBusPre(fmt.Sprintf("pre.%s.%d", seg.Name, i), pa, pb, spec.DataWidth, i)
			if err != nil {
				return fmt.Errorf("element %d (%s): precharge %s: %w", i, e.Name, seg.Name, err)
			}
			ecols = append(ecols, pc)
		}
		if store != nil {
			// The stored artifact gets its own pristine clone: corePass
			// mutates the live columns (x assignment, stretched-cell
			// substitution) and those mutations must never reach the cache.
			art := &genArtifact{cols: cloneColumns(ecols)}
			store.Put(genGroup(spec, i, e.Name), perElemKey[i], art, columnsCost(art.cols))
		}
		perElem[i] = ecols
		return nil
	})
	if err != nil {
		return err
	}
	// cellID names every distinct unstretched cell by its owning gen key,
	// the identity the stretch artifacts key on.
	var cellID map[*cell.Cell]string
	if store != nil {
		cellID = make(map[*cell.Cell]string)
		for i, ecols := range perElem {
			for _, col := range ecols {
				for _, cc := range col.cells {
					if _, ok := cellID[cc]; !ok {
						cellID[cc] = perElemKey[i] + "/" + cc.Name
					}
				}
			}
		}
	}
	var cols []*column
	for _, ecols := range perElem {
		cols = append(cols, ecols...)
	}

	// ---- Barrier: voting on global parameters. The power budget
	// accumulated over every column sizes the rails; the pitch and
	// standard bus offsets follow. This needs all columns, so it sits
	// between the fan-out and the fan-in.
	var colPower []int
	for _, col := range cols {
		p := 0
		for _, cc := range col.cells {
			p += cc.PowerUA
		}
		colPower = append(colPower, p)
	}
	budget := &power.Budget{PerElementUA: colPower}
	if err := budget.Check(); err != nil {
		return err
	}
	railW := budget.UniformRailWidth()
	dRail := railW - geom.L(4) // extra width per rail beyond the drawn 4λ
	if dRail < 0 {
		dRail = 0
	}
	pitch := geom.L(celllib.RowPitch) + 2*dRail
	busATarget := geom.L(celllib.BusACenter) + 2*dRail
	busBTarget := geom.L(celllib.BusBCenter) + 2*dRail

	// ---- Fan-in: stretch every distinct cell once — widen both rails,
	// then pin the bus bristles to the chip-standard offsets and the
	// pitch. Distinct cells are collected in column order, stretched
	// concurrently (each task works on its own Copy), and mapped back in
	// column order, so the stretched map is identical to the serial run's.
	type distinctCell struct {
		cc      *cell.Cell
		colName string // first referencing column, for error context
		colIdx  int
	}
	var uniq []distinctCell
	seen := make(map[*cell.Cell]int)
	for ci, col := range cols {
		for _, cc := range col.cells {
			if _, ok := seen[cc]; !ok {
				seen[cc] = len(uniq)
				uniq = append(uniq, distinctCell{cc: cc, colName: col.name, colIdx: ci})
			}
		}
	}
	stretchedOf := make([]*cell.Cell, len(uniq))
	// deltas[i] is the Y growth FitY and the rail widening inserted into
	// distinct cell i; each fan-out task owns its slot, and the serial sum
	// below is order-independent, so the stat is deterministic at every
	// pool width.
	deltas := make([]geom.Coord, len(uniq))
	err = pool.RunIndexed(ctx, workers, len(uniq), func(worker, i int) error {
		u := uniq[i]
		var sp *trace.Active
		if tr != nil { // untraced: build no span name or attributes
			sp = tr.StartSpan(passSpan, "stretch."+u.cc.Name, trace.PassCore, worker)
		}
		defer sp.End()
		var stKey, stGroup string
		if store != nil {
			// The stretch key folds in every voted global: a power-vote shift
			// re-keys all stretch artifacts (the gen artifacts stay valid).
			stKey = stretchKeyFor(cellID[u.cc], dRail, pitch, busATarget, busBTarget)
			stGroup = "st:" + cellID[u.cc]
			if v, ok := store.GetDurable(stGroup, stKey, decodeCell); ok {
				sc := v.(*cell.Cell)
				deltas[i] = sc.Size.H() - u.cc.Size.H()
				if sp != nil {
					sp.Attr("cache", "hit").
						Attr("delta_lambda", strconv.FormatFloat(geom.InLambda(deltas[i]), 'g', -1, 64))
				}
				stretchedOf[i] = sc
				return nil
			}
			sp.Attr("cache", "miss")
		}
		sc := u.cc.Copy()
		if dRail > 0 {
			if err := stretch.WidenRail(sc, "gnd", dRail); err != nil {
				return fmt.Errorf("column %d (%s): %w", u.colIdx, u.colName, err)
			}
			if err := stretch.WidenRail(sc, "vdd", dRail); err != nil {
				return fmt.Errorf("column %d (%s): %w", u.colIdx, u.colName, err)
			}
		}
		if err := stretch.FitY(sc, []stretch.Target{
			{Bristle: "busA.W", At: busATarget},
			{Bristle: "busB.W", At: busBTarget},
		}, pitch); err != nil {
			return fmt.Errorf("column %d (%s): %w", u.colIdx, u.colName, err)
		}
		deltas[i] = sc.Size.H() - u.cc.Size.H()
		if sp != nil {
			sp.Attr("delta_lambda", strconv.FormatFloat(geom.InLambda(deltas[i]), 'g', -1, 64))
		}
		if store != nil {
			// Stretched cells are read-only from here on (assembly reads the
			// layout, pad collection reads the bristles), so the cached copy
			// is handed to later compiles directly.
			store.PutDurable(stGroup, stKey, sc, cellCost(sc), encodeCell)
		}
		stretchedOf[i] = sc
		return nil
	})
	if err != nil {
		return err
	}
	c.Stats.CellsGenerated = len(uniq)
	var stretchDist geom.Coord
	for _, d := range deltas {
		if d != 0 {
			c.Stats.StretchesApplied++
			stretchDist += d
		}
	}
	c.Stats.StretchDistanceLambda = int(geom.InLambda(stretchDist))
	for _, col := range cols {
		if strings.HasPrefix(col.name, "brk.") {
			c.Stats.BusBreaks++
		}
	}
	if dRail > 0 {
		obs.Logger(ctx).Warn("power-dense core: rails widened beyond the drawn width",
			"pass", "core",
			"rail_extra_lambda", geom.InLambda(dRail),
			"power_ua", budget.TotalUA())
	}
	for _, col := range cols {
		for bi, cc := range col.cells {
			col.cells[bi] = stretchedOf[seen[cc]]
		}
	}

	// Assemble the core: columns left to right, bit rows bottom-up.
	coreMask := mask.NewCell(spec.Name + ".core")
	x := geom.Coord(0)
	for ci, col := range cols {
		w := col.cells[0].Width()
		for _, cc := range col.cells {
			if cc.Width() != w {
				return fmt.Errorf("column %d (%s) has ragged cell widths", ci, col.name)
			}
		}
		col.x = x
		for r, cc := range col.cells {
			coreMask.PlaceNamed(col.name+"."+strconv.Itoa(r), cc.Layout,
				geom.Translate(x-cc.Size.MinX, geom.Coord(r)*pitch-cc.Size.MinY))
		}
		x += w
	}

	c.columns = cols
	c.CoreMask = coreMask
	c.Stats.Pitch = pitch
	c.Stats.PowerUA = budget.TotalUA()
	c.Stats.CoreBounds = geom.R(0, 0, x, geom.Coord(spec.DataWidth)*pitch)
	c.drawPowerTrunks()
	return nil
}

// drawPowerTrunks runs a ground trunk along the core's west edge and a
// supply trunk along its east edge, tying every bit row's rail together in
// diffusion (so pad wires can cross them in metal). Each trunk ends in a
// metal head that becomes the chip's single power connection point per
// side.
func (c *Chip) drawPowerTrunks() {
	lay := c.CoreMask
	pitch := c.Stats.Pitch
	coreW := c.Stats.CoreBounds.MaxX
	coreH := c.Stats.CoreBounds.MaxY
	w := c.Spec.DataWidth

	// Rail centerlines per row, from the first column's stretched cell.
	first := c.columns[0].cells[0]
	last := c.columns[len(c.columns)-1].cells[0]
	railY := func(cc *cell.Cell, net string) geom.Coord {
		for _, r := range cc.Rails {
			if r.Net == net {
				return r.Y - cc.Size.MinY
			}
		}
		return geom.L(2)
	}

	drawTrunk := func(x0 geom.Coord, net string, railOff, ext, headX geom.Coord) geom.Point {
		// The trunk reaches ext below the core, then a metal arm runs east
		// along the south edge to the head at headX. Putting the heads on
		// the south side, away from the corners, keeps them clear of the
		// west-side element pads: a head placed on a top bit row would
		// fight an I/O element's top bits for the same moat corridors.
		lay.AddBox(layer.Diff, geom.R(x0, -ext, x0+geom.L(4), coreH))
		for r := 0; r < w; r++ {
			y := geom.Coord(r)*pitch + railOff
			// Metal tab from the rail (at x=0) out over the strap, with a
			// contact on the strap.
			lay.AddBox(layer.Metal, geom.R(x0-geom.L(1), y-geom.L(2), geom.L(4), y+geom.L(2)))
			lay.AddBox(layer.Contact, geom.R(x0+geom.L(1), y-geom.L(1), x0+geom.L(3), y+geom.L(1)))
		}
		// Metal arm from a contact on the trunk's south tip to the head.
		// Metal crosses the other trunk's diffusion harmlessly.
		hy := -ext + geom.L(2)
		lay.AddBox(layer.Contact, geom.R(x0+geom.L(1), hy-geom.L(1), x0+geom.L(3), hy+geom.L(1)))
		lay.AddBox(layer.Metal, geom.R(x0-geom.L(1), hy-geom.L(2), headX+geom.L(3), hy+geom.L(2)))
		lay.AddLabel(net, geom.Pt(headX, hy), layer.Metal)
		return geom.Pt(headX, hy)
	}
	gy := railY(first, "gnd")
	vy := railY(first, "vdd")
	_ = last
	// Heads at one third and two thirds of the core width: away from the
	// congested corners and far enough apart for two pad slots.
	c.gndTrunkAt = drawTrunk(-geom.L(8), "gnd", gy, geom.L(8), coreW*2/3)
	// The vdd trunk sits outboard of the gnd trunk; its metal tabs cross
	// the gnd trunk's diffusion harmlessly, and its arm runs 12λ further
	// south so the two arms keep 8λ of metal spacing.
	c.vddTrunkAt = drawTrunk(-geom.L(18), "vdd", vy, geom.L(20), coreW/3)
}

// sortedKeys returns a map's keys in sorted order, for deterministic
// iteration wherever the order reaches geometry.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// busNamesAt resolves the bus nets at an element position; unused slots get
// a floating placeholder net.
func busNamesAt(plan *bus.Plan, i int) (string, string) {
	busA := "ncA" + strconv.Itoa(i)
	busB := "ncB" + strconv.Itoa(i)
	if s := plan.AtElement[i][bus.Upper]; s != nil {
		busA = s.Name
	}
	if s := plan.AtElement[i][bus.Lower]; s != nil {
		busB = s.Name
	}
	return busA, busB
}

// controlPass implements Pass 2: collect the control connection points
// from the core, build the decoder above it, and join the control and
// clock lines across the gap.
func (c *Chip) controlPass(ctx context.Context) error {
	spec := c.Spec
	topRow := spec.DataWidth - 1
	var specs []decoder.ControlSpec
	ctlX := make(map[string]geom.Coord)
	clockX := make(map[string][]geom.Coord)
	for _, col := range c.columns {
		specs = append(specs, col.controls...)
		top := col.cells[topRow]
		for _, b := range top.BristlesBy(cell.Control) {
			ctlX[b.Net] = col.x + b.Offset - top.Size.MinX
		}
		for _, b := range top.BristlesBy(cell.Clock) {
			clockX[b.Net] = append(clockX[b.Net], col.x+b.Offset-top.Size.MinX)
		}
	}
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })

	// With an artifact store attached, the whole decoder build is one
	// memoizable unit keyed by its full input (microcode, sorted control
	// specs, drop offsets). The cached Result is read-only downstream —
	// assembly places its layout, NewSim shares its Decode closure — so it
	// is served without cloning.
	store := incr.FromContext(ctx)
	// The key is computed even without a store: CompiledDecoderLogic keys
	// its memoized logic program off it.
	c.p2Key = p2KeyFor(spec, specs, ctlX, clockX, c.Options.SkipOptimize, c.Options.SkipMinimize)
	var res *decoder.Result
	if store != nil {
		if v, ok := store.Get(c.p2Key); ok {
			res = v.(*decoder.Result)
			trace.SpanFromContext(ctx).Attr("cache", "hit")
		} else {
			trace.SpanFromContext(ctx).Attr("cache", "miss")
		}
	}
	if res == nil {
		var err error
		res, err = decoder.Build(spec.Microcode, specs, &decoder.Options{
			SkipOptimize: c.Options.SkipOptimize,
			SkipMinimize: c.Options.SkipMinimize,
			Parallelism:  c.Options.Parallelism,
			CtlX:         ctlX,
			ClockX:       clockX,
		})
		if err != nil {
			return err
		}
		if store != nil {
			store.Put("p2:"+spec.Name, c.p2Key, res, decoderCost(res))
		}
	}
	c.Decoder = res

	// Chip assembly: decoder above the core with an 8λ gap; poly fillers
	// join every control and clock line across the gap.
	chipMask := mask.NewCell(spec.Name)
	chipMask.PlaceNamed("core", c.CoreMask, geom.Identity)
	coreTop := c.Stats.CoreBounds.MaxY
	decoderY := coreTop + geom.L(8)
	chipMask.PlaceNamed("decoder", res.Layout.Cell.Layout, geom.Translate(0, decoderY))
	// The fillers are drawn in sorted-key order: map iteration order would
	// otherwise leak into the mask's geometry order and break the
	// byte-identical guarantee the determinism tests pin down.
	for _, name := range sortedKeys(ctlX) {
		x := ctlX[name]
		chipMask.AddWire(layer.Poly, geom.L(2), geom.Pt(x, coreTop-geom.L(1)), geom.Pt(x, decoderY+geom.L(1)))
	}
	for _, name := range sortedKeys(clockX) {
		for _, x := range clockX[name] {
			chipMask.AddWire(layer.Poly, geom.L(2), geom.Pt(x, coreTop-geom.L(1)), geom.Pt(x, decoderY+geom.L(1)))
		}
	}
	c.Mask = chipMask
	c.Stats.Controls = len(specs)
	c.Stats.PLATerms = len(res.Array.Terms)
	c.Stats.DecoderOpt = res.Stats
	c.Stats.PlaTermsBefore = res.Stats.TermsBefore
	c.Stats.PlaTermsAfter = res.Stats.TermsAfter
	c.Stats.PlaAreaSavedLambda2 = res.AreaSavedLambda2()
	c.Stats.ControlJoins = len(ctlX)
	for _, xs := range clockX {
		c.Stats.ControlJoins += len(xs)
	}
	if !c.Options.SkipOptimize && res.Stats.TermsBefore > 0 && res.Stats.TermsAfter == res.Stats.TermsBefore {
		obs.Logger(ctx).Warn("decoder optimizer eliminated no PLA terms",
			"pass", "control", "terms", res.Stats.TermsBefore)
	}
	return nil
}

// padPass implements Pass 3: collect every pad-needing connection point
// (I/O bits, microcode inputs, clocks, power rails), hand them to the
// Roto-Router, and place the resulting ring around the chip.
func (c *Chip) padPass(ctx context.Context) error {
	reqs := c.padRequests()
	c.Stats.PadRequests = len(reqs)
	if len(reqs) == 0 {
		return fmt.Errorf("chip has no pad connection points")
	}
	if c.Options.SkipRotoRouter {
		obs.Logger(ctx).Warn("Roto-Router disabled: pad rotation pinned to 0",
			"pass", "pads", "requests", len(reqs))
	}
	coreB := c.Stats.CoreBounds
	decB := c.Decoder.Layout.Cell.Size.Translate(geom.Pt(0, coreB.MaxY+geom.L(8)))
	bounds := coreB.Union(decB)
	// The west power trunks live just outside the core and reach below it
	// to their south-side heads; widen the blocked region so their
	// geometry is inside it (the heads remain reachable through the
	// approach band).
	bounds.MinX -= geom.L(20)
	bounds.MinY -= geom.L(22)
	// The blocked region is the union box: with both power trunks on the
	// flush west edge, no connection point lives in the core/decoder
	// notch — except an east-side I/O port, which therefore requires the
	// core to be at least as wide as the decoder.
	if decB.MaxX > coreB.MaxX {
		for _, rq := range reqs {
			if rq.Outward == (geom.Pt(1, 0)) && rq.At.X <= coreB.MaxX && rq.At.Y < coreB.MaxY {
				return fmt.Errorf("element with east-side pads needs a core at least as wide as the decoder (%dλ vs %dλ); place the I/O element first instead",
					coreB.MaxX/4, decB.MaxX/4)
			}
		}
	}
	// Like the decoder, the pad ring is one memoizable unit: same bounds
	// and request list mean a byte-identical ring (Parallelism changes only
	// how the rip-up ladder is scheduled). The cached Ring is read-only
	// downstream, so it is served without cloning.
	store := incr.FromContext(ctx)
	evenPads := c.Options.EvenPads || c.Spec.EvenPads
	var p3Key string
	var ring *pads.Ring
	if store != nil {
		p3Key = p3KeyFor(bounds, reqs, c.Options.SkipRotoRouter, evenPads)
		if v, ok := store.Get(p3Key); ok {
			ring = v.(*pads.Ring)
			trace.SpanFromContext(ctx).Attr("cache", "hit")
		} else {
			trace.SpanFromContext(ctx).Attr("cache", "miss")
		}
	}
	if ring == nil {
		var err error
		ring, err = pads.BuildCtx(ctx, bounds, reqs, &pads.Options{
			SkipRotoRouter: c.Options.SkipRotoRouter,
			EvenSpacing:    evenPads,
			Obstacles:      []geom.Rect{bounds},
			Parallelism:    c.Options.Parallelism,
		})
		if err != nil {
			return err
		}
		if store != nil {
			store.Put("p3:"+c.Spec.Name, p3Key, ring, ringCost(ring))
		}
	}
	c.Ring = ring
	c.Mask.PlaceNamed("pads", ring.Cell, geom.Identity)
	c.Stats.PadCount = ring.PadCount
	c.Stats.WireLen = ring.TotalWireLen
	c.Stats.RouteNets = ring.RouteStats.Nets
	c.Stats.RouteCellsExpanded = ring.RouteStats.CellsExpanded
	c.Stats.RouteFrontierPeak = ring.RouteStats.FrontierPeak
	return nil
}

// padRequests assembles Pass 3's input.
func (c *Chip) padRequests() []pads.Request {
	var reqs []pads.Request
	pitch := c.Stats.Pitch
	coreB := c.Stats.CoreBounds
	decoderY := coreB.MaxY + geom.L(8)
	dec := c.Decoder.Layout.Cell

	// Core I/O and power bristles.
	for _, col := range c.columns {
		for r, cc := range col.cells {
			base := geom.Pt(col.x-cc.Size.MinX, geom.Coord(r)*pitch-cc.Size.MinY)
			for _, b := range cc.BristlesBy(cell.PadReq) {
				p := b.Position(cc.Size).Add(base)
				out := geom.Pt(-1, 0)
				if b.Side == cell.East {
					out = geom.Pt(1, 0)
				}
				reqs = append(reqs, pads.Request{
					Net: b.Net, Class: b.PadClass, At: p, Layer: b.Layer, Outward: out,
				})
			}
		}
		// Power feed per row on the column at the core's west and east
		// edges only.
	}
	// Power: the trunks along the core edges collect every bit row's
	// rails, so the chip needs just one gnd and one vdd connection point
	// for the core (the decoder contributes its own below).
	reqs = append(reqs,
		pads.Request{Net: "gnd", Class: "gnd", At: c.gndTrunkAt, Layer: layer.Metal, Outward: geom.Pt(0, -1)},
		pads.Request{Net: "vdd", Class: "vdd", At: c.vddTrunkAt, Layer: layer.Metal, Outward: geom.Pt(0, -1)},
	)

	// Decoder bristles: microcode inputs (north), clocks (east), power.
	for _, b := range dec.Bristles {
		p := b.Position(dec.Size).Add(geom.Pt(0, decoderY))
		switch {
		case b.Flavor == cell.PadReq:
			out := geom.Pt(0, 1)
			if b.Side == cell.East {
				out = geom.Pt(1, 0)
			}
			reqs = append(reqs, pads.Request{Net: b.Net, Class: b.PadClass, At: p, Layer: b.Layer, Outward: out})
		case b.Flavor == cell.Power:
			out := outOf(b.Side)
			reqs = append(reqs, pads.Request{Net: "vdd", Class: "vdd", At: p, Layer: b.Layer, Outward: out})
		case b.Flavor == cell.Ground:
			out := outOf(b.Side)
			reqs = append(reqs, pads.Request{Net: "gnd", Class: "gnd", At: p, Layer: b.Layer, Outward: out})
		}
	}
	return reqs
}

func outOf(s cell.Side) geom.Point {
	switch s {
	case cell.North:
		return geom.Pt(0, 1)
	case cell.South:
		return geom.Pt(0, -1)
	case cell.East:
		return geom.Pt(1, 0)
	default:
		return geom.Pt(-1, 0)
	}
}

// NewSim builds the Simulation representation: a fresh functional chip
// with one bus per planned segment, the element behavioural models, and
// the decoder's control function.
func (c *Chip) NewSim() (*sim.Chip, error) {
	ch := &sim.Chip{Decode: c.Decoder.Decode}
	seen := make(map[string]bool)
	for _, seg := range c.plan.Segments {
		if seen[seg.Name] {
			continue
		}
		seen[seg.Name] = true
		b, err := sim.NewBus(seg.Name, c.Spec.DataWidth)
		if err != nil {
			return nil, err
		}
		ch.AddBus(b)
	}
	for _, col := range c.columns {
		if col.model != nil {
			if r, ok := col.model.(interface{ reset() }); ok {
				r.reset()
			}
			ch.AddElement(col.model)
		}
	}
	return ch, nil
}

// NewCompiledSim builds the Simulation representation on the compiled
// stepping backend: same buses and models as NewSim, but decode runs on
// the mask-form decoder and the phase pipeline on pre-bound closure
// chains (see sim.Compile). The chip must carry a decoder (i.e. not be a
// SkipExtraReps compile).
func (c *Chip) NewCompiledSim() (*sim.Compiled, error) {
	ch, err := c.NewSim()
	if err != nil {
		return nil, err
	}
	if c.Decoder == nil || c.Decoder.Compiled == nil {
		return nil, fmt.Errorf("core: chip %s has no compiled decoder", c.Spec.Name)
	}
	return sim.Compile(ch, c.Decoder.Compiled)
}

// CompiledDecoderLogic returns the decoder's Logic diagram compiled to
// the slot evaluator, memoized in the artifact store (when one rides the
// context) under the sim artifact kind keyed by the decoder build's
// content address — the logic program is a pure function of the decoder,
// so an unchanged decoder across edits reuses the compiled program.
func (c *Chip) CompiledDecoderLogic(ctx context.Context) (*logic.Compiled, error) {
	if c.Decoder == nil {
		return nil, fmt.Errorf("core: chip %s has no decoder", c.Spec.Name)
	}
	store := incr.FromContext(ctx)
	key := simKeyFor(c.p2Key)
	if store != nil {
		if v, ok := store.Get(key); ok {
			return v.(*logic.Compiled), nil
		}
	}
	d := c.Decoder.Array.Logic()
	prog, err := logic.Compile(d)
	if err != nil {
		return nil, err
	}
	if store != nil {
		store.Put("sim:"+c.Spec.Name, key, prog, logicCost(d))
	}
	return prog, nil
}

// Model returns a column's behavioural model by element name (for test
// benches and examples).
func (c *Chip) Model(name string) sim.Element {
	for _, col := range c.columns {
		if col.name == name && col.model != nil {
			return col.model
		}
	}
	return nil
}

// ColumnInfo describes one compiled column for the baseline estimators.
type ColumnInfo struct {
	Name    string
	Width   geom.Coord
	PowerUA int
}

// Columns reports the compiled columns in core order.
func (c *Chip) Columns() []ColumnInfo {
	out := make([]ColumnInfo, len(c.columns))
	for i, col := range c.columns {
		p := 0
		for _, cc := range col.cells {
			p += cc.PowerUA
		}
		out[i] = ColumnInfo{Name: col.name, Width: col.cells[0].Width(), PowerUA: p}
	}
	return out
}
