package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
	"bristleblocks/internal/trace"
)

// TestAllocAttribution compiles the example chips solo and checks that
// the per-pass deltas account for at least 90% of the whole-compile
// allocation delta — the ISSUE 9 acceptance bar. Run with no parallel
// siblings (the counters are process-wide).
func TestAllocAttribution(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "examples", "chips", "*.bb"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no example chips found: %v", err)
	}
	for _, path := range specs {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := desc.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			chip, err := core.Compile(spec, &core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			total := chip.Phases[trace.PhaseTotal]
			if total.Objects == 0 || total.Bytes == 0 {
				t.Fatalf("no total alloc delta recorded: %+v", chip.Phases)
			}
			if chip.Phases[trace.PhaseCore].Objects == 0 {
				t.Error("core pass recorded zero allocations")
			}
			var att trace.Measure // every pass, the glue excluded
			for _, m := range chip.Phases[:trace.PhaseTotal] {
				att.Objects += m.Objects
				att.Bytes += m.Bytes
			}
			if att.Objects > total.Objects || att.Bytes > total.Bytes {
				t.Errorf("attributed %+v exceeds total %+v", att, total)
			}
			// ≥ 90% of the compile's allocations must land in a named pass.
			if float64(att.Objects) < 0.9*float64(total.Objects) {
				t.Errorf("object attribution %.1f%% < 90%% (attributed %d of %d)\n%s",
					100*float64(att.Objects)/float64(total.Objects), att.Objects, total.Objects,
					phaseBreakdown(&chip.Phases, att))
			}
			if float64(att.Bytes) < 0.9*float64(total.Bytes) {
				t.Errorf("byte attribution %.1f%% < 90%% (attributed %d of %d)\n%s",
					100*float64(att.Bytes)/float64(total.Bytes), att.Bytes, total.Bytes,
					phaseBreakdown(&chip.Phases, att))
			}
		})
	}
}

// phaseBreakdown lists every phase's objects and bytes and the glue
// remainder (the total less the attributed passes att), so an attribution
// failure says where the unattributed allocations went.
func phaseBreakdown(ph *trace.Phases, att trace.Measure) string {
	names := [trace.NumPhases]string{"core", "control", "pads", "reps", "total"}
	var b strings.Builder
	for i, m := range ph {
		fmt.Fprintf(&b, "  %-8s %8d objects %10d bytes\n", names[i], m.Objects, m.Bytes)
	}
	total := ph[trace.PhaseTotal]
	fmt.Fprintf(&b, "  %-8s %8d objects %10d bytes", "glue",
		int64(total.Objects)-int64(att.Objects), int64(total.Bytes)-int64(att.Bytes))
	return b.String()
}

// TestAllocsExcludedFromStats pins the determinism contract: Stats must
// not grow allocation fields (it is byte-compared across differential
// legs), so the measurement lives in Chip.Phases.
func TestAllocsExcludedFromStats(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "chips", "adder4.bb"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := desc.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Compile(spec, &core.Options{SkipPads: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Compile(spec, &core.Options{SkipPads: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Errorf("Stats differ across identical compiles:\n%+v\n%+v", a.Stats, b.Stats)
	}
}
