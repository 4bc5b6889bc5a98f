// Pass 3 exactness pins: ladder-heavy specs whose pad ring closes only
// after many rip-up attempts, and specs Pass 3 rejects after exhausting
// the whole (moat, strategy) ladder. The CIF digest, the five route
// counters and the rejection texts are pinned literally, so a change to
// the rip-up loop that alters which attempts run, what they commit, or
// the work they report fails here by name.
package bristleblocks_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"bristleblocks"
	"bristleblocks/internal/specgen"
)

func TestPass3LadderPinned(t *testing.T) {
	pins := []struct {
		seed   int64
		cif    string
		counts string // Nets Conflicts Retries CellsExpanded FrontierPeak
	}{
		{6, "0fd034c88b319730c47f7df2c24f052dedeb0dd73e50e6767449440c37d91cc1", "902 21 21 770279 135"},
		{132, "b0a8e2ecbe189bd9ec1eb560e1b6718db4670b7c6b93a19d58ace96ca546d1fe", "760 27 27 426307 148"},
		{226, "7faac57bb31537249c56e70e678c9725b7a0a1089b30791798f9e9d1d580e5e8", "767 12 12 858494 146"},
		{494, "28045107c8c51114ef060e2a1abd17f2a6b9ebf3d1afce9184b586da8fcd585a", "895 20 20 877662 147"},
		{730, "8099b4e44c455558e1d56cade52e92f1241c4fd6e7a70f1c909e0a9169772d3d", "894 17 17 336015 144"},
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
			got := fmt.Sprint(st.RouteNets, st.RouteConflicts, st.RouteRetries, st.RouteCellsExpanded, st.RouteFrontierPeak)
			if got != p.counts {
				t.Errorf("seed %d -j %d: route counters %q, want %q", p.seed, par, got, p.counts)
			}
		}
	}
}

func TestPass3RejectionsPinned(t *testing.T) {
	pins := []struct {
		seed int64
		err  string
	}{
		{18, "pad pass: pads: no free approach to io2 at (0,548)"},
		{851, "pad pass: pads: no free approach to io5 at (0,1244)"},
		{2267, "pad pass: pads: no free approach to io1 at (0,292)"},
	}
	// -j 1 runs the whole ladder on one worker's reused routing buffers;
	// -j 2 and -j 4 race the combos after combo 0 fails, each ladder
	// worker on buffers of its own.
	for _, p := range pins {
		spec := specgen.FromSeed(p.seed, &specgen.Config{ForPads: true})
		for _, par := range []int{1, 2, 4} {
			_, err := bristleblocks.Compile(spec, &bristleblocks.Options{Parallelism: par})
			if err == nil || err.Error() != p.err {
				t.Errorf("seed %d -j %d: error %v, want %q", p.seed, par, err, p.err)
			}
		}
	}
}
