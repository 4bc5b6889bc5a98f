package invariant

import (
	"bytes"
	"context"
	"fmt"

	"bristleblocks/internal/cache"
	"bristleblocks/internal/cif"
	"bristleblocks/internal/core"
)

// Outputs is one compile's byte-comparable output set: the CIF mask set,
// the rendered sticks diagram, and a statistics report. Two compiles of
// the same spec along any path (serial, parallel, cached, daemon) must
// produce identical Outputs.
type Outputs struct {
	CIF, Sticks, Report string
}

// RenderOutputs compiles a spec and renders its comparable outputs.
func RenderOutputs(spec *core.Spec, opts *core.Options) (*core.Chip, Outputs, error) {
	chip, err := core.Compile(spec, opts)
	if err != nil {
		return nil, Outputs{}, err
	}
	out, err := chipOutputs(chip)
	return chip, out, err
}

func chipOutputs(chip *core.Chip) (Outputs, error) {
	var buf bytes.Buffer
	lambda := chip.Spec.LambdaCentimicrons
	if lambda <= 0 {
		lambda = cif.DefaultLambdaCentimicrons
	}
	if err := cif.Write(&buf, chip.Mask, lambda); err != nil {
		return Outputs{}, err
	}
	// The report excludes pass times (never deterministic) but covers every
	// derived statistic and the column table.
	report := fmt.Sprintf("stats: %+v\ncolumns: %v\n", chip.Stats, chip.Columns())
	return Outputs{CIF: buf.String(), Sticks: chip.Sticks.Render(16), Report: report}, nil
}

// diffOutputs names the first field where two output sets diverge.
func diffOutputs(label string, want, got Outputs) []string {
	var vs []string
	if got.CIF != want.CIF {
		vs = append(vs, label+": CIF mask set differs from the serial baseline")
	}
	if got.Sticks != want.Sticks {
		vs = append(vs, label+": sticks diagram differs from the serial baseline")
	}
	if got.Report != want.Report {
		vs = append(vs, fmt.Sprintf("%s: statistics report differs from the serial baseline:\n%s\nvs\n%s",
			label, got.Report, want.Report))
	}
	return vs
}

// Differential compiles one spec along every local path and reports any
// output difference:
//
//   - serial (Parallelism=1) is the baseline;
//   - each entry of jobs recompiles with that Pass 1 pool size;
//   - a cold compile through the cache layer (Render) must match a second,
//     independent cold compile byte for byte, the in-memory hit must
//     return the stored bytes unchanged, and when cacheDir is non-empty
//     the result must survive the disk layer's frame round trip intact;
//   - the cache's CIF rendering must equal the direct cif.Write output, so
//     daemon responses and bristlec files are comparable bytes.
//
// The spec's extra representations must be enabled (the cache stores
// them). Returned strings are discrepancies; empty means every path
// agrees.
func Differential(spec *core.Spec, opts *core.Options, jobs []int, cacheDir string) []string {
	if opts == nil {
		opts = &core.Options{}
	}
	base := *opts
	base.Parallelism = 1
	_, want, err := RenderOutputs(spec, &base)
	if err != nil {
		return []string{fmt.Sprintf("serial compile failed: %v", err)}
	}

	var vs []string
	for _, j := range jobs {
		if j == 1 {
			continue
		}
		par := *opts
		par.Parallelism = j
		_, got, err := RenderOutputs(spec, &par)
		if err != nil {
			vs = append(vs, fmt.Sprintf("-j %d compile failed: %v", j, err))
			continue
		}
		vs = append(vs, diffOutputs(fmt.Sprintf("-j %d", j), want, got)...)
	}

	vs = append(vs, cacheLegs(spec, opts, want, cacheDir)...)
	return vs
}

// cacheLegs runs the cold/hit/disk comparisons.
func cacheLegs(spec *core.Spec, opts *core.Options, want Outputs, cacheDir string) []string {
	ctx := context.Background()
	var vs []string

	cold, err := cache.New(0, "")
	if err != nil {
		return []string{fmt.Sprintf("cache: %v", err)}
	}
	res1, cached, err := cold.Compile(ctx, spec, opts)
	if err != nil {
		return []string{fmt.Sprintf("cache: cold compile failed: %v", err)}
	}
	if cached {
		vs = append(vs, "cache: first compile claimed a hit on an empty cache")
	}
	// The cache's stored CIF must be the same bytes a direct compile
	// writes — this ties the daemon's serving path to bristlec's.
	if string(res1.CIF) != want.CIF {
		vs = append(vs, "cache: rendered CIF differs from the direct compile's")
	}

	// Independent cold compile through a second cache: run-to-run
	// determinism of the whole Render pipeline.
	cold2, _ := cache.New(0, "")
	res2, _, err := cold2.Compile(ctx, spec, opts)
	if err != nil {
		return append(vs, fmt.Sprintf("cache: second cold compile failed: %v", err))
	}
	vs = append(vs, diffResults("cache cold-vs-cold", res1, res2)...)

	// In-memory hit.
	res3, cached, err := cold.Compile(ctx, spec, opts)
	if err != nil {
		return append(vs, fmt.Sprintf("cache: warm compile failed: %v", err))
	}
	if !cached {
		vs = append(vs, "cache: identical spec missed the warm cache")
	}
	vs = append(vs, diffResults("cache hit-vs-cold", res1, res3)...)

	// Disk layer: store through one cache, read through a fresh one rooted
	// at the same directory; the frame round trip must be lossless.
	if cacheDir != "" {
		dc1, err := cache.New(0, cacheDir)
		if err != nil {
			return append(vs, fmt.Sprintf("cache: disk layer: %v", err))
		}
		defer dc1.Close()
		if _, _, err := dc1.Compile(ctx, spec, opts); err != nil {
			return append(vs, fmt.Sprintf("cache: disk-backed compile failed: %v", err))
		}
		dc2, err := cache.New(0, cacheDir)
		if err != nil {
			return append(vs, fmt.Sprintf("cache: disk layer: %v", err))
		}
		defer dc2.Close()
		res4, ok := dc2.Get(cache.Key(spec, opts))
		if !ok {
			return append(vs, "cache: result did not survive the disk layer")
		}
		vs = append(vs, diffResults("cache disk-vs-cold", res1, res4)...)
	}
	return vs
}

// diffResults byte-compares two cached results.
func diffResults(label string, want, got *cache.Result) []string {
	var vs []string
	if !bytes.Equal(got.CIF, want.CIF) {
		vs = append(vs, label+": CIF bytes differ")
	}
	if got.Text != want.Text {
		vs = append(vs, label+": text representation differs")
	}
	if got.Block != want.Block {
		vs = append(vs, label+": block diagram differs")
	}
	if got.Logical != want.Logical {
		vs = append(vs, label+": logical diagram differs")
	}
	if got.Stats != want.Stats {
		vs = append(vs, fmt.Sprintf("%s: statistics differ: %+v vs %+v", label, got.Stats, want.Stats))
	}
	if got.Chip != want.Chip {
		vs = append(vs, label+": chip name differs")
	}
	return vs
}
