package core_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
	"bristleblocks/internal/specgen"
)

// TestSkipExtraRepsSameStats: skipping the extra representations changes
// what the chip carries, not what Stats reports. The example chips and
// specgen seeds, each with and without the pad ring, compile to equal
// Stats either way, and the transistor count is the merged netlist's.
func TestSkipExtraRepsSameStats(t *testing.T) {
	type tc struct {
		name string
		spec *core.Spec
	}
	var cases []tc
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "chips", "*.bb"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example chips found: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := desc.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{filepath.Base(p), spec})
	}
	seeds := int64(200)
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= seeds; seed++ {
		cases = append(cases,
			tc{"seed", specgen.FromSeed(seed, nil)},
			tc{"forpads", specgen.FromSeed(seed, &specgen.Config{ForPads: true})})
	}
	compiled := 0
	for _, c := range cases {
		for _, skipPads := range []bool{true, false} {
			full, err := core.Compile(c.spec, &core.Options{SkipPads: skipPads, Parallelism: 1})
			if err != nil {
				continue // a Pass 3 rejection; nothing to compare
			}
			lean, err := core.Compile(c.spec, &core.Options{SkipPads: skipPads, SkipExtraReps: true, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s %s (pads %v): the full compile succeeded, the SkipExtraReps one failed: %v",
					c.name, c.spec.Name, !skipPads, err)
			}
			if lean.Netlist != nil || lean.Text != "" {
				t.Fatalf("%s %s: SkipExtraReps still built the representations", c.name, c.spec.Name)
			}
			if full.Stats.Transistors != len(full.Netlist.Txs) {
				t.Errorf("%s %s (pads %v): Stats.Transistors = %d, the merged netlist holds %d",
					c.name, c.spec.Name, !skipPads, full.Stats.Transistors, len(full.Netlist.Txs))
			}
			if !reflect.DeepEqual(full.Stats, lean.Stats) {
				t.Errorf("%s %s (pads %v): Stats differ\nfull %+v\nlean %+v",
					c.name, c.spec.Name, !skipPads, full.Stats, lean.Stats)
			}
			compiled++
		}
	}
	if compiled < len(cases) { // every pad-less compile, at least
		t.Fatalf("only %d of %d compiles succeeded", compiled, 2*len(cases))
	}
}
