// Pass 3 exactness pins: ladder-heavy specs whose pad ring closes only
// after many rip-up attempts or at a wider moat, and the specs Pass 3 used
// to reject after exhausting the whole (moat, strategy) ladder. The
// ladder pins hold the CIF digest and the three route counters literally,
// so a change to the rip-up loop that alters which attempts run, what they
// commit, or the work they report fails here by name.
package bristleblocks_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"bristleblocks"
	"bristleblocks/internal/drc"
	"bristleblocks/internal/invariant"
	"bristleblocks/internal/layer"
	"bristleblocks/internal/specgen"
)

func TestPass3LadderPinned(t *testing.T) {
	pins := []struct {
		seed   int64
		cif    string
		counts string // Nets CellsExpanded FrontierPeak
	}{
		{6, "cc5e3a7903d4749669c6c214c014ebac0757efee15ec4459d87fa715b4faadb5", "154 18009 155"},
		{132, "b0a8e2ecbe189bd9ec1eb560e1b6718db4670b7c6b93a19d58ace96ca546d1fe", "442 223713 558"},
		{226, "3cfc6e1ddf133cd59d7d73da537a934f33163c93f0c654c13ab6d2e6130de8cc", "34 1828 111"},
		{494, "009c6e64aa1f362e2c0866c9a527ddd41316bb5e58b7b33232ddf3021970669f", "342 97458 291"},
		{730, "bbcaa3c8c4258f36557aafbd15c57c4aeb7be8ffba4e3483e7694be4ffd211ec", "657 207500 144"},
		// The deepest ladder of seeds 1–2306: it closes only at the third
		// moat width (315λ).
		{1999, "25e8dcd7ac84350ee77ef172587dbe8cd520083c0c44ad2cb5f6a80c05e78634", "62 31710 415"},
	}
	for _, p := range pins {
		spec := specgen.FromSeed(p.seed, &specgen.Config{ForPads: true})
		for _, par := range []int{1, 2} {
			chip, err := bristleblocks.Compile(spec, &bristleblocks.Options{Parallelism: par})
			if err != nil {
				t.Fatalf("seed %d -j %d: %v", p.seed, par, err)
			}
			var cif bytes.Buffer
			if err := bristleblocks.WriteCIF(&cif, chip); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(cif.Bytes())); got != p.cif {
				t.Errorf("seed %d -j %d: CIF sha256 %s, want %s", p.seed, par, got, p.cif)
			}
			st := chip.Stats
			got := fmt.Sprint(st.RouteNets, st.RouteCellsExpanded, st.RouteFrontierPeak)
			if got != p.counts {
				t.Errorf("seed %d -j %d: route counters %q, want %q", p.seed, par, got, p.counts)
			}
		}
	}
}

// TestPass3FormerRejectionsRoute pins the fifteen ForPads specs of seeds
// 1–2306 that Pass 3 rejected until its search hugged the core ("no free
// approach to ioN" after exhausting the ladder; all use even pad spacing
// and one west ioport of data width 12 or 16). Each must compile to the
// same CIF at every pool size, pass the invariant checker, and route its
// metal — the layer Pass 3 draws — DRC-clean.
func TestPass3FormerRejectionsRoute(t *testing.T) {
	seeds := []int64{18, 54, 247, 516, 586, 628, 770, 851, 1307, 1882, 1915, 1968, 2154, 2159, 2267}
	var notMetal []layer.Layer
	for l := layer.Layer(0); l < layer.NumLayers; l++ {
		if l != layer.Metal {
			notMetal = append(notMetal, l)
		}
	}
	// -j 1 runs the whole ladder on one worker's reused routing buffers;
	// -j 2 and -j 4 race the combos after combo 0 fails, each ladder
	// worker on buffers of its own.
	for _, seed := range seeds {
		spec := specgen.FromSeed(seed, &specgen.Config{ForPads: true})
		var want []byte
		for _, par := range []int{1, 2, 4} {
			chip, err := bristleblocks.Compile(spec, &bristleblocks.Options{Parallelism: par})
			if err != nil {
				t.Errorf("seed %d -j %d: %v", seed, par, err)
				continue
			}
			var cif bytes.Buffer
			if err := bristleblocks.WriteCIF(&cif, chip); err != nil {
				t.Fatal(err)
			}
			if par > 1 {
				if !bytes.Equal(cif.Bytes(), want) {
					t.Errorf("seed %d: -j %d CIF differs from -j 1", seed, par)
				}
				continue
			}
			want = cif.Bytes()
			for _, v := range invariant.Check(chip, &invariant.Options{Seed: seed}) {
				t.Errorf("seed %d: invariant: %s", seed, v)
			}
			for _, v := range drc.Check(chip.Mask, layer.MeadConway(), &drc.Options{SkipLayers: notMetal}) {
				t.Errorf("seed %d: drc: %s", seed, v)
			}
		}
	}
}
