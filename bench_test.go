// Benchmarks: one testing.B per experiment in EXPERIMENTS.md. Each bench
// regenerates its figure or table row; `go test -bench . -benchmem` is the
// whole evaluation. Custom metrics report the experiment's headline number
// alongside time/op (area ratios, wire-length ratios, term counts).
package bristleblocks_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bristleblocks"
	"bristleblocks/internal/baseline"
	"bristleblocks/internal/cache"
	"bristleblocks/internal/cif"
	"bristleblocks/internal/core"
	"bristleblocks/internal/experiments"
	"bristleblocks/internal/incr"
	"bristleblocks/internal/scenario"
	"bristleblocks/internal/server"
	"bristleblocks/internal/specgen"
	"bristleblocks/internal/trace"
)

func compileSuite(b *testing.B, idx int, opts *core.Options) *core.Chip {
	b.Helper()
	chip, err := core.Compile(experiments.SpecFor(experiments.Suite[idx]), opts)
	if err != nil {
		b.Fatal(err)
	}
	return chip
}

// BenchmarkF1BlockDiagram regenerates Figure 1 (the physical chip format).
func BenchmarkF1BlockDiagram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.F1(); !strings.Contains(out, "DECODER") {
			b.Fatal("block diagram missing decoder")
		}
	}
}

// BenchmarkF2LogicalDiagram regenerates Figure 2 (the logical chip format).
func BenchmarkF2LogicalDiagram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.F2(); !strings.Contains(out, "upper bus") {
			b.Fatal("logical diagram missing buses")
		}
	}
}

// BenchmarkF3GeneralitySweep regenerates Figure 3's coverage sweep: 30 chip
// configurations compiled per iteration.
func BenchmarkF3GeneralitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.F3(); !strings.Contains(out, "coverage: 30/30") {
			b.Fatal("coverage regressed")
		}
	}
}

// BenchmarkT1AreaVsHand regenerates the ±10% area claim; the ratio for the
// largest in-regime chip is reported as a metric.
func BenchmarkT1AreaVsHand(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		chip := compileSuite(b, 4, &core.Options{SkipPads: true}) // "large"
		ratio = baseline.AreaRatio(chip)
	}
	b.ReportMetric(ratio, "area-ratio")
	if ratio < 0.85 || ratio > 1.15 {
		b.Fatalf("area ratio %.2f left the paper's band", ratio)
	}
}

// BenchmarkCompileSmall and BenchmarkCompileLarge are the two ends of the
// T2 compile-time claim (paper: 4 min vs 10-15 min on a PDP-10; the shape
// is the ratio between them, roughly 2.5-3.75x).
func BenchmarkCompileSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		compileSuite(b, 1, nil)
	}
}

func BenchmarkCompileLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		compileSuite(b, 4, nil)
	}
}

// BenchmarkCompileXL compiles the 32-bit chip beyond the paper's regime.
func BenchmarkCompileXL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		compileSuite(b, 5, nil)
	}
}

// BenchmarkT3Representations regenerates the completeness table: all seven
// representations of one chip per iteration (the paper shipped five).
func BenchmarkT3Representations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chip := compileSuite(b, 2, &core.Options{SkipPads: true})
		if chip.Sticks == nil || chip.Netlist == nil || chip.Logic == nil ||
			chip.Text == "" || chip.Block == "" {
			b.Fatal("missing representation")
		}
		if _, err := chip.NewSim(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA1Stretch measures Pass 1's stretch machinery: the uniform-pitch
// core assembly that replaces hand routing channels.
func BenchmarkA1Stretch(b *testing.B) {
	var channels float64
	for i := 0; i < b.N; i++ {
		chip := compileSuite(b, 4, &core.Options{SkipPads: true})
		channels = float64(baseline.Hand(chip).Channels)
	}
	b.ReportMetric(channels, "hand-channels")
	b.ReportMetric(0, "stretch-channels")
}

// BenchmarkA2RotoRouter measures Pass 3 with the rotation optimization and
// reports the wire-length ratio against the unrotated assignment.
func BenchmarkA2RotoRouter(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		chip := compileSuite(b, 2, nil)
		ratio = float64(chip.Ring.NaiveLen) / float64(chip.Ring.EstimatedLen)
	}
	b.ReportMetric(ratio, "naive/roto")
	if ratio < 1 {
		b.Fatalf("Roto-Router made things worse: %.2f", ratio)
	}
}

// BenchmarkA2RotoRouterOff is the ablation arm: rotation pinned to 0. The
// single-layer router cannot close the ring without the rotation step, so
// the interesting metric is routability (0), and the time is the cost of
// exhausting the retry ladder.
func BenchmarkA2RotoRouterOff(b *testing.B) {
	var routable float64
	for i := 0; i < b.N; i++ {
		_, err := core.Compile(experiments.SpecFor(experiments.Suite[2]),
			&core.Options{SkipRotoRouter: true})
		if err == nil {
			routable = 1
		}
	}
	b.ReportMetric(routable, "routable")
}

// BenchmarkA3DecoderOpt measures Pass 2 with the text-array optimizer and
// reports the PLA term reduction.
func BenchmarkA3DecoderOpt(b *testing.B) {
	var before, after float64
	for i := 0; i < b.N; i++ {
		chip, err := core.Compile(experiments.RedundantSpecFor(experiments.Suite[2]),
			&core.Options{SkipPads: true})
		if err != nil {
			b.Fatal(err)
		}
		before = float64(chip.Stats.DecoderOpt.TermsBefore)
		after = float64(chip.Stats.DecoderOpt.TermsAfter)
	}
	b.ReportMetric(before, "terms-raw")
	b.ReportMetric(after, "terms-opt")
	if after >= before {
		b.Fatal("optimizer had no effect")
	}
}

// BenchmarkA3DecoderOptOff is the ablation arm: optimizer disabled.
func BenchmarkA3DecoderOptOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(experiments.RedundantSpecFor(experiments.Suite[2]),
			&core.Options{SkipPads: true, SkipOptimize: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA4CondAssembly compiles the PROTOTYPE and production variants
// and reports the reclaimed area fraction.
func BenchmarkA4CondAssembly(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		spec := experiments.SpecFor(experiments.Suite[1])
		spec.Elements[0].OnlyIf = "PROTOTYPE"
		spec.Globals = map[string]bool{"PROTOTYPE": true}
		proto, err := core.Compile(spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		spec2 := experiments.SpecFor(experiments.Suite[1])
		spec2.Elements[0].OnlyIf = "PROTOTYPE"
		spec2.Globals = map[string]bool{"PROTOTYPE": false}
		prod, err := core.Compile(spec2, nil)
		if err != nil {
			b.Fatal(err)
		}
		saved = 1 - float64(prod.Stats.ChipBounds.Area())/float64(proto.Stats.ChipBounds.Area())
	}
	b.ReportMetric(saved*100, "%area-reclaimed")
}

// BenchmarkA5Variants compiles the all-ones and mixed-value constant chips
// and reports the column width saved by variant selection.
func BenchmarkA5Variants(b *testing.B) {
	widthOf := func(value string) float64 {
		spec := experiments.SpecFor(experiments.Suite[1])
		spec.Elements[4].Params["value"] = value
		chip, err := core.Compile(spec, &core.Options{SkipPads: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, col := range chip.Columns() {
			if col.Name == "k1" {
				return float64(col.Width) / 4
			}
		}
		b.Fatal("constant column not found")
		return 0
	}
	var narrow, wide float64
	for i := 0; i < b.N; i++ {
		narrow = widthOf("15") // all ones
		wide = widthOf("9")    // mixed
	}
	b.ReportMetric(narrow, "λ-all-ones")
	b.ReportMetric(wide, "λ-mixed")
}

// benchCorePass runs Pass 1 alone over every spec in examples/chips plus
// the two largest suite chips (the examples are paper-scale; the suite
// chips give the fan-out enough columns to chew on), at the given pool
// width.
func benchCorePass(b *testing.B, parallelism int) {
	b.Helper()
	var specs []*core.Spec
	for _, spec := range chipsSpecs(b) {
		specs = append(specs, spec)
	}
	specs = append(specs, experiments.SpecFor(experiments.Suite[4]), experiments.SpecFor(experiments.Suite[5]))
	opts := &core.Options{Parallelism: parallelism}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if _, err := core.CoreOnly(ctx, spec, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCorePassSerial is the baseline arm: Pass 1 with the fan-out
// pinned to one worker.
func BenchmarkCorePassSerial(b *testing.B) { benchCorePass(b, 1) }

// BenchmarkCorePassParallel is the tentpole's headline number: Pass 1 on a
// GOMAXPROCS-wide pool. Compare against BenchmarkCorePassSerial — on a
// multi-core machine the fan-out (element generation) and fan-in (cell
// stretching) stages scale with cores, and the ratio is the speedup.
func BenchmarkCorePassParallel(b *testing.B) { benchCorePass(b, 0) }

// benchRoutePass compiles every spec in examples/chips end-to-end at the
// given pool width and reports the summed Pass 3 wall-clock as the
// "pads-ms" metric (time/op includes Passes 1-2, so the metric is the
// number to compare).
func benchRoutePass(b *testing.B, parallelism int) {
	b.Helper()
	specs := chipsSpecs(b)
	opts := &core.Options{Parallelism: parallelism, SkipExtraReps: true}
	var padsUS int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		padsUS = 0
		for _, spec := range specs {
			chip, err := core.Compile(spec, opts)
			if err != nil {
				b.Fatal(err)
			}
			padsUS += chip.Phases[trace.PhasePads].Dur.Microseconds()
		}
	}
	b.ReportMetric(float64(padsUS)/1e3, "pads-ms")
}

// BenchmarkRouteSerial is Pass 3 at -j 1: every rip-up attempt routes its
// units serially, and the (moat, strategy) ladder runs on one worker.
func BenchmarkRouteSerial(b *testing.B) { benchRoutePass(b, 1) }

// BenchmarkRoutePassFormerRejections is Pass 3 at -j 1 over the fifteen
// ForPads specs of seeds 1–2306 that it rejected, after running the whole
// (moat, strategy) rip-up ladder to exhaustion, until its search hugged
// the core. They route now; pads-ms sums their Pass 3 wall-clock.
func BenchmarkRoutePassFormerRejections(b *testing.B) {
	var specs []*core.Spec
	for _, seed := range []int64{18, 54, 247, 516, 586, 628, 770, 851, 1307, 1882, 1915, 1968, 2154, 2159, 2267} {
		specs = append(specs, specgen.FromSeed(seed, &specgen.Config{ForPads: true}))
	}
	opts := &core.Options{Parallelism: 1, SkipExtraReps: true}
	var padsUS int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		padsUS = 0
		for _, spec := range specs {
			chip, err := core.Compile(spec, opts)
			if err != nil {
				b.Fatal(err)
			}
			padsUS += chip.Phases[trace.PhasePads].Dur.Microseconds()
		}
	}
	b.ReportMetric(float64(padsUS)/1e3, "pads-ms")
}

// BenchmarkRouteParallel is Pass 3 with a GOMAXPROCS-wide pool. Pass 3
// walks its ladder serially at every width, so pads-ms should match
// BenchmarkRouteSerial's; only Pass 1 and Pass 2 use the pool.
func BenchmarkRouteParallel(b *testing.B) { benchRoutePass(b, 0) }

// BenchmarkRouteParallelJ8 pins the pool width to 8 regardless of the
// machine, so runs on different hosts compare the same schedule.
func BenchmarkRouteParallelJ8(b *testing.B) { benchRoutePass(b, 8) }

// BenchmarkControlPass is Pass 2 over every example chip, with and without
// the Espresso-style minimizer. time/op includes Pass 1 (the decoder needs
// the core's drop offsets); the comparison lives in the pla-ms metric, the
// summed Pass 2 wall-clock per iteration.
func BenchmarkControlPass(b *testing.B) {
	specs := chipsSpecs(b)
	for _, arm := range []struct {
		name    string
		skipMin bool
	}{{"minimized", false}, {"unminimized", true}} {
		opts := &core.Options{SkipMinimize: arm.skipMin, SkipPads: true, SkipExtraReps: true}
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var plaUS int64
			for i := 0; i < b.N; i++ {
				plaUS = 0
				for _, spec := range specs {
					chip, err := core.Compile(spec, opts)
					if err != nil {
						b.Fatal(err)
					}
					plaUS += chip.Phases[trace.PhaseControl].Dur.Microseconds()
				}
			}
			b.ReportMetric(float64(plaUS)/1e3, "pla-ms")
		})
	}
}

// BenchmarkCompileCachedHit is the serving path's hot case: the
// CompileLarge spec re-requested through a warm content-addressed cache.
// Compare with BenchmarkCompileLarge for the hit/miss ratio the daemon
// banks on (the acceptance bar is >= 10x).
func BenchmarkCompileCachedHit(b *testing.B) {
	c, err := cache.New(0, "")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	spec := experiments.SpecFor(experiments.Suite[4])
	if _, _, err := c.Compile(ctx, spec, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, cached, err := c.Compile(ctx, spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !cached || len(res.CIF) == 0 {
			b.Fatal("cache miss on the warm path")
		}
	}
}

// BenchmarkIncrEdit is the edit-session inner loop: each iteration moves
// the CompileLarge chip's constant to a fresh two-bit value and
// recompiles. The same popcount keeps the voted globals and chip bounds
// pinned, and the top row is untouched, so the decoder's drop offsets and
// with them the Pass 2 artifact stay valid. cold compiles each edit from
// scratch; warm compiles against one incr store, so only the edited
// element regenerates. Both skip the extra representations, like the
// watch loop's CIF-only cycle.
func BenchmarkIncrEdit(b *testing.B) {
	spec := experiments.SpecFor(experiments.Suite[4])
	at := len(spec.Elements) - 1 // the const element
	opts := &core.Options{SkipExtraReps: true}
	compileEdit := func(b *testing.B, ctx context.Context, i int) {
		spec.Elements[at].Params["value"] = strconv.Itoa(3 << uint(i%(spec.DataWidth-2)))
		if _, err := core.CompileCtx(ctx, spec, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			compileEdit(b, context.Background(), i)
		}
	})
	b.Run("warm", func(b *testing.B) {
		store, err := incr.New(0, "")
		if err != nil {
			b.Fatal(err)
		}
		ctx := incr.WithStore(context.Background(), store)
		compileEdit(b, ctx, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			compileEdit(b, ctx, i+1)
		}
	})
}

// BenchmarkRender times the render layer on its own: the CIF and sticks
// writers that cache.Render runs on every cold or edit-session compile,
// over the compiled example chips (one op renders all of them).
func BenchmarkRender(b *testing.B) {
	paths, err := filepath.Glob(filepath.Join("examples", "chips", "*.bb"))
	if err != nil || len(paths) == 0 {
		b.Fatalf("no example specs found: %v", err)
	}
	var chips []*core.Chip
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			b.Fatal(err)
		}
		spec, err := bristleblocks.ParseSpec(string(src))
		if err != nil {
			b.Fatal(err)
		}
		chip, err := core.Compile(spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		chips = append(chips, chip)
	}
	b.Run("cif", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, chip := range chips {
				out, err := cif.Append(nil, chip.Mask, cif.DefaultLambdaCentimicrons)
				if err != nil || len(out) == 0 {
					b.Fatal("empty CIF", err)
				}
			}
		}
	})
	b.Run("sticks", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, chip := range chips {
				if chip.Sticks.Render(16) == "" {
					b.Fatal("empty sticks")
				}
			}
		}
	})
}

// BenchmarkServerThroughput drives an in-process compile daemon with
// parallel clients re-posting the same description: the millions-of-users
// shape, where almost every request is a cache hit served without a
// worker slot.
func BenchmarkServerThroughput(b *testing.B) {
	s, err := server.New(server.Config{QueueDepth: 256})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Shutdown(context.Background())
	}()
	spec := bristleblocks.FormatSpec(experiments.SpecFor(experiments.Suite[1]))
	// Each body is drained before Close so the client reuses its
	// keep-alive connection; an unread body drops it, and the loop would
	// time a TCP dial per request.
	post := func() {
		resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(spec))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, read error %v", resp.StatusCode, err)
		}
	}
	// Prime the cache so the measured loop is the serving path, not the
	// first cold compile.
	post()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			post()
		}
	})
}

// BenchmarkServerHitReps is one warm /compile hit that asks for the CIF
// and sticks, the shape of bbdbench's hot_cache: no compile work, so the
// time and allocations are parse, key, lookup, the response writer and
// HTTP. BenchmarkServerThroughput asks for no representations and never
// reaches the writer's representation path.
func BenchmarkServerHitReps(b *testing.B) {
	s, err := server.New(server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Shutdown(context.Background())
	}()
	spec := bristleblocks.FormatSpec(experiments.SpecFor(experiments.Suite[4]))
	url := ts.URL + "/compile?reps=cif,sticks"
	post := func() int64 {
		resp, err := http.Post(url, "text/plain", strings.NewReader(spec))
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, read error %v", resp.StatusCode, err)
		}
		return n
	}
	n := post() // the cold compile, outside the timer
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkDRCFullChip measures the design-rule checker over a complete
// chip (core, decoder, pad ring) — the verification a user runs per cycle.
func BenchmarkDRCFullChip(b *testing.B) {
	chip := compileSuite(b, 2, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := bristleblocks.CheckDRC(chip); len(vs) != 0 {
			b.Fatal(vs[0])
		}
	}
}

// BenchmarkExtractFullChip measures netlist extraction over a complete
// chip: the independent Layout -> Transistors derivation.
func BenchmarkExtractFullChip(b *testing.B) {
	chip := compileSuite(b, 2, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bristleblocks.ExtractNetlist(chip); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimFibonacci runs the microprocessor example's Fibonacci program
// on a compiled chip's simulation representation.
func BenchmarkSimFibonacci(b *testing.B) {
	spec := experiments.SpecFor(experiments.Suite[2])
	chip, err := core.Compile(spec, &core.Options{SkipPads: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine, err := chip.NewSim()
		if err != nil {
			b.Fatal(err)
		}
		program := make([]uint64, 64)
		for j := range program {
			program[j] = uint64(2 | (j%3)<<4) // exercise register loads
		}
		machine.Run(program)
	}
}

// BenchmarkSim sweeps all 4096 microcode words of the CompileLarge chip and
// reads the two-phase control levels: the logic-vs-simulation invariant's
// inner loop. interpreted pays a fresh CycleState (maps and bus snapshots)
// per word; compiled runs pre-bound closures into reused scratch.
func BenchmarkSim(b *testing.B) {
	chip := compileSuite(b, 4, &core.Options{SkipPads: true, SkipExtraReps: true})
	words := uint64(1) << chip.Spec.Microcode.Width
	b.Run("interpreted", func(b *testing.B) {
		machine, err := chip.NewSim()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for micro := uint64(0); micro < words; micro++ {
				machine.Step(micro)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		machine, err := chip.NewCompiledSim()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for micro := uint64(0); micro < words; micro++ {
				machine.StepCtl(micro)
			}
		}
	})
}

// BenchmarkScenarioGrade grades every example scenario against its
// pre-compiled chip: what a warm /verify request or a bristlec -verify
// rerun pays. vectors/s is the graded-vector throughput.
func BenchmarkScenarioGrade(b *testing.B) {
	files, err := filepath.Glob(filepath.Join("examples", "scenarios", "*.sv"))
	if err != nil || len(files) == 0 {
		b.Fatalf("no example scenarios found: %v", err)
	}
	var (
		scs     []*scenario.Scenario
		chips   []*core.Chip
		vectors int
	)
	for _, path := range files {
		parsed, err := scenario.ParseFile(path)
		if err != nil {
			b.Fatal(err)
		}
		chip := compileExample(b, strings.TrimSuffix(filepath.Base(path), ".sv"))
		for _, sc := range parsed {
			scs = append(scs, sc)
			chips = append(chips, chip)
			vectors += sc.Vectors()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, sc := range scs {
			if v := scenario.Grade(chips[j], sc); !v.Passed100() {
				b.Fatalf("scenario %s graded %d%%", sc.Name, v.GradePercent)
			}
		}
	}
	b.ReportMetric(float64(vectors)*float64(b.N)/b.Elapsed().Seconds(), "vectors/s")
}
