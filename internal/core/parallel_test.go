package core

import (
	"context"
	"strings"
	"testing"

	"bristleblocks/internal/trace"
)

// TestCorePassParallelEquivalence: Pass 1's fan-out must not change the
// compiled chip — same mask geometry, stats, and column layout at every
// pool size. (The root-level determinism test pins full byte-identical
// CIF/sticks output over examples/chips; this is the fast in-package
// version across more shapes.)
func TestCorePassParallelEquivalence(t *testing.T) {
	for _, width := range []int{2, 8, 16} {
		serial, err := Compile(testSpec(width), &Options{SkipPads: true, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{0, 2, 8} {
			chip, err := Compile(testSpec(width), &Options{SkipPads: true, Parallelism: par})
			if err != nil {
				t.Fatalf("width=%d par=%d: %v", width, par, err)
			}
			if chip.Stats != serial.Stats {
				t.Fatalf("width=%d par=%d: stats diverged:\n%+v\n%+v", width, par, chip.Stats, serial.Stats)
			}
			if len(chip.columns) != len(serial.columns) {
				t.Fatalf("width=%d par=%d: column count diverged", width, par)
			}
			for i := range chip.columns {
				if chip.columns[i].name != serial.columns[i].name || chip.columns[i].x != serial.columns[i].x {
					t.Fatalf("width=%d par=%d: column %d placed at %q/%d, want %q/%d", width, par, i,
						chip.columns[i].name, chip.columns[i].x, serial.columns[i].name, serial.columns[i].x)
				}
			}
		}
	}
}

// TestCorePassErrorContext: element generation failures name the failing
// element and its index, serial and parallel alike.
func TestCorePassErrorContext(t *testing.T) {
	spec := testSpec(4)
	// Break the shifter (element index 3): a shifter without rd fails in
	// its generator, past Validate.
	spec.Elements[3].Params = map[string]string{"ld": "OP=7"}
	for _, par := range []int{1, 8} {
		_, err := Compile(spec, &Options{SkipPads: true, Parallelism: par})
		if err == nil {
			t.Fatalf("par=%d: compile succeeded with a broken element", par)
		}
		if !strings.Contains(err.Error(), "element 3 (sh)") {
			t.Fatalf("par=%d: error %q does not name element 3 (sh)", par, err)
		}
	}
}

// TestCorePassErrorDeterminism: with several broken elements the reported
// error is the first in element order at any pool size, matching serial.
func TestCorePassErrorDeterminism(t *testing.T) {
	mk := func() *Spec {
		spec := testSpec(4)
		spec.Elements[2].Params = map[string]string{"lda": "OP=4"} // alu missing ldb/rd
		spec.Elements[3].Params = map[string]string{"ld": "OP=7"}  // shifter missing rd
		return spec
	}
	want := ""
	for _, par := range []int{1, 2, 8} {
		_, err := Compile(mk(), &Options{SkipPads: true, Parallelism: par})
		if err == nil {
			t.Fatalf("par=%d: compile succeeded", par)
		}
		if want == "" {
			want = err.Error()
			if !strings.Contains(want, "element 2 (alu)") {
				t.Fatalf("serial error %q does not name element 2 (alu)", want)
			}
		} else if err.Error() != want {
			t.Fatalf("par=%d: error %q, serial said %q", par, err, want)
		}
	}
}

// TestCompileTraceSpans: a trace on the context collects per-pass,
// per-element, and per-stretch spans with plausible worker ids.
func TestCompileTraceSpans(t *testing.T) {
	tr := trace.New()
	ctx := trace.WithTrace(context.Background(), tr)
	if _, err := CompileCtx(ctx, testSpec(4), &Options{SkipPads: true, Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	var passes, gens, stretches int
	for _, s := range tr.Spans() {
		switch {
		case strings.HasPrefix(s.Name, "pass."):
			passes++
			if s.Worker != trace.Coordinator {
				t.Errorf("pass span %s on worker %d, want coordinator", s.Name, s.Worker)
			}
		case strings.HasPrefix(s.Name, "gen."):
			gens++
			if s.Worker < 0 || s.Worker >= 4 {
				t.Errorf("gen span %s on worker %d, want 0..3", s.Name, s.Worker)
			}
		case strings.HasPrefix(s.Name, "stretch."):
			stretches++
		}
	}
	// testSpec has 5 elements and 8 columns worth of distinct cells.
	if passes < 3 || gens != 5 || stretches == 0 {
		t.Fatalf("got %d pass, %d gen, %d stretch spans", passes, gens, stretches)
	}
}

// TestCoreOnly: the Pass 1 seam produces the core layout without the
// decoder or ring.
func TestCoreOnly(t *testing.T) {
	chip, err := CoreOnly(context.Background(), testSpec(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if chip.CoreMask == nil || chip.Stats.Pitch == 0 {
		t.Fatal("core pass did not fill the core layout")
	}
	if chip.Mask != nil || chip.Decoder != nil {
		t.Fatal("CoreOnly ran more than Pass 1")
	}
}
