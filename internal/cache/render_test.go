package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bristleblocks/internal/core"
	"bristleblocks/internal/specgen"
)

// TestRenderPinned pins Render's CIF and sticks bytes over generated corpora
// much wider than the example-chip goldens: one sha256 per corpus, kept in
// testdata/render_pinned.golden. The writers are hand-tuned, so this is the
// check that a rewrite stays byte-identical. Regenerate after an intentional
// output change with:
//
//	go test ./internal/cache -run TestRenderPinned -update
var updatePinned = flag.Bool("update", false, "rewrite internal/cache/testdata golden files")

const pinnedPath = "testdata/render_pinned.golden"

// renderDigest compiles each spec, renders it and feeds the chip's index,
// CIF and sticks (length-prefixed) into h. Specs Pass 3 rejects contribute
// their index and the word "rejected", so a change in which seeds compile
// also changes the digest.
func renderDigest(t *testing.T, h hash.Hash, specs []*core.Spec, opts *core.Options) {
	t.Helper()
	for i, spec := range specs {
		chip, err := core.Compile(spec, opts)
		if err != nil {
			fmt.Fprintf(h, "%d rejected\n", i)
			continue
		}
		res, err := Render(chip)
		if err != nil {
			t.Fatalf("spec %d: Render: %v", i, err)
		}
		fmt.Fprintf(h, "%d cif %d\n", i, len(res.CIF))
		h.Write(res.CIF)
		fmt.Fprintf(h, "sticks %d\n", len(res.Sticks))
		h.Write([]byte(res.Sticks))
	}
}

func TestRenderPinned(t *testing.T) {
	var padSpecs []*core.Spec
	for seed := int64(1); seed <= 200; seed++ {
		padSpecs = append(padSpecs, specgen.FromSeed(seed, &specgen.Config{ForPads: true}))
	}
	var editSpecs []*core.Spec
	for seed := int64(1); seed <= 4; seed++ {
		base := specgen.FromSeed(seed, nil)
		editSpecs = append(editSpecs, base)
		editSpecs = append(editSpecs, specgen.MutateN(rand.New(rand.NewSource(seed)), base, 40)...)
	}
	sets := []struct {
		name  string
		specs []*core.Spec
		opts  *core.Options
	}{
		{"forpads_seeds_1_200", padSpecs, nil},
		{"mutate_4_chains_x40_nopads", editSpecs, &core.Options{SkipPads: true}},
	}
	var got strings.Builder
	for _, set := range sets {
		h := sha256.New()
		renderDigest(t, h, set.specs, set.opts)
		fmt.Fprintf(&got, "%s %s\n", set.name, hex.EncodeToString(h.Sum(nil)))
	}
	if *updatePinned {
		if err := os.MkdirAll(filepath.Dir(pinnedPath), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedPath, []byte(got.String()), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinnedPath)
	if err != nil {
		t.Fatalf("golden missing (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("render digests changed:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestRenderCIFExactLength: a cached CIF holds only its bytes, not the
// spare capacity of cif.Append's estimated buffer, so the LRU's cost
// charge matches what the entry keeps resident.
func TestRenderCIFExactLength(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		chip, err := core.Compile(specgen.FromSeed(seed, &specgen.Config{ForPads: true}), nil)
		if err != nil {
			continue
		}
		res, err := Render(chip)
		if err != nil {
			t.Fatal(err)
		}
		if cap(res.CIF) != len(res.CIF) {
			t.Errorf("seed %d: cap(CIF) = %d, len = %d", seed, cap(res.CIF), len(res.CIF))
		}
	}
}

// TestRenderToSharesRender holds the two render entry points to one
// result: RenderTo's is Render's with the CIF left in the caller's buffer
// instead of copied out, and a warm buffer spares it the CIF allocation.
func TestRenderToSharesRender(t *testing.T) {
	var buf []byte
	for seed := int64(1); seed <= 4; seed++ {
		chip, err := core.Compile(specgen.FromSeed(seed, &specgen.Config{ForPads: true}), nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Render(chip)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RenderTo(chip, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: RenderTo's result differs from Render's", seed)
		}
		if len(got.CIF) == 0 || &got.CIF[0] != &buf[0] {
			t.Errorf("seed %d: RenderTo's CIF does not alias the caller's buffer", seed)
		}
		copied := testing.AllocsPerRun(5, func() { Render(chip) })
		inPlace := testing.AllocsPerRun(5, func() { RenderTo(chip, &buf) })
		if inPlace >= copied {
			t.Errorf("seed %d: RenderTo made %.0f allocations, Render %.0f; want fewer", seed, inPlace, copied)
		}
	}
}
