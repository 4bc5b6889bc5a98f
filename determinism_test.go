// Determinism tests: the parallel fan-outs — Pass 1's per-column
// pipeline and Pass 3's speculative net routing (wave snapshots, commit
// in routing order, moat×strategy attempts raced to the lowest-index
// winner) — must be invisible in the output. Every spec in
// examples/chips is compiled serially (Parallelism=1) and on a wide
// pool, and the CIF mask set, sticks diagram, and statistics report
// (including the route conflict/retry counters) are required to be
// byte-identical — the property that lets the compile cache share one
// entry across pool sizes and lets a bug report reproduce exactly
// regardless of the machine.
package bristleblocks_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bristleblocks"
)

// chipsSpecs parses every .bb description under examples/chips.
func chipsSpecs(t testing.TB) map[string]*bristleblocks.Spec {
	t.Helper()
	paths, err := filepath.Glob("examples/chips/*.bb")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no chip descriptions found: %v", err)
	}
	specs := make(map[string]*bristleblocks.Spec, len(paths))
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := bristleblocks.ParseSpec(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		specs[filepath.Base(p)] = spec
	}
	return specs
}

// renderOutputs compiles a spec and returns its three comparable outputs:
// the CIF mask set, the sticks diagram, and a statistics report.
func renderOutputs(t testing.TB, spec *bristleblocks.Spec, parallelism int) (string, string, string) {
	t.Helper()
	chip, err := bristleblocks.Compile(spec, &bristleblocks.Options{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	var cif bytes.Buffer
	if err := bristleblocks.WriteCIF(&cif, chip); err != nil {
		t.Fatal(err)
	}
	// The report excludes Phases (wall-clock is never deterministic) but
	// covers every derived statistic, so a pitch or placement divergence
	// shows up even if it happens not to move a mask byte.
	report := fmt.Sprintf("stats: %+v\ncolumns: %v\n", chip.Stats, chip.Columns())
	return cif.String(), chip.Sticks.Render(16), report
}

func TestParallelCompileDeterministic(t *testing.T) {
	for name, spec := range chipsSpecs(t) {
		t.Run(name, func(t *testing.T) {
			wantCIF, wantSticks, wantReport := renderOutputs(t, spec, 1)
			for _, par := range []int{0, 2, 4, 8, 2 * runtime.NumCPU()} {
				cif, sticks, report := renderOutputs(t, spec, par)
				if cif != wantCIF {
					t.Fatalf("parallelism %d: CIF differs from serial", par)
				}
				if sticks != wantSticks {
					t.Fatalf("parallelism %d: sticks differ from serial", par)
				}
				if report != wantReport {
					t.Fatalf("parallelism %d: report differs from serial:\n%s\nvs\n%s", par, report, wantReport)
				}
			}
		})
	}
}

// TestSerialCompileStable: the serial compiler itself is run-to-run
// byte-stable (no map-iteration order leaking into geometry) — the
// baseline the parallel comparison rests on.
func TestSerialCompileStable(t *testing.T) {
	for name, spec := range chipsSpecs(t) {
		t.Run(name, func(t *testing.T) {
			wantCIF, wantSticks, wantReport := renderOutputs(t, spec, 1)
			for i := 0; i < 3; i++ {
				cif, sticks, report := renderOutputs(t, spec, 1)
				if cif != wantCIF || sticks != wantSticks || report != wantReport {
					t.Fatalf("run %d: serial output unstable", i)
				}
			}
		})
	}
}
