package bristleblocks_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bristleblocks"
	"bristleblocks/internal/scenario"
)

// Scenario golden tests: every .sv file under examples/scenarios grades
// against its chip and the full verdict list must match the checked-in
// golden under testdata/golden/scenarios/<name>.json. On top of the
// byte-level pin, every example scenario must grade 100% functional —
// the examples are the documentation of a working chip, so a failing
// vector there is a compiler regression, not a golden drift.
//
// Regenerate after an intentional change with:
//
//	go test -run TestGoldenScenarios -update

func compileExample(t testing.TB, name string) *bristleblocks.Chip {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("examples", "chips", name+".bb"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := bristleblocks.ParseSpec(string(src))
	if err != nil {
		t.Fatal(err)
	}
	chip, err := bristleblocks.Compile(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

func TestGoldenScenarios(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("examples", "scenarios", "*.sv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".sv")
		t.Run(name, func(t *testing.T) {
			scs, err := scenario.ParseFile(path)
			if err != nil {
				t.Fatal(err)
			}
			chip := compileExample(t, name)
			verdicts := scenario.GradeAll(chip, scs)
			for _, v := range verdicts {
				if !v.Passed100() {
					t.Errorf("scenario %s did not grade 100%%: error=%q failures=%v (%d/%d)",
						v.Scenario, v.Error, v.Failures, v.Passed, v.Vectors)
				}
			}
			buf, err := json.MarshalIndent(verdicts, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "golden", "scenarios", name+".json")
			checkGolden(t, golden, string(buf)+"\n")
		})
	}
}
