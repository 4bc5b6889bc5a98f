package core

import (
	"bytes"
	"context"
	"testing"

	"bristleblocks/internal/cif"
	"bristleblocks/internal/geom"
	"bristleblocks/internal/incr"
)

// renderCIF renders the comparable output of a compiled chip.
func renderCIF(t *testing.T, chip *Chip) string {
	t.Helper()
	var buf bytes.Buffer
	if err := cif.Write(&buf, chip.Mask, cif.DefaultLambdaCentimicrons); err != nil {
		t.Fatalf("cif.Write: %v", err)
	}
	return buf.String()
}

// TestIncrementalCompileByteIdentical pins the store's core contract: a
// compile served from a warm store is byte-identical to a scratch compile
// of the same spec, and a one-element edit hits on everything else.
func TestIncrementalCompileByteIdentical(t *testing.T) {
	store, err := incr.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := incr.WithStore(context.Background(), store)

	// Cold compile warms the store.
	cold, err := CompileCtx(ctx, testSpec(4), nil)
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	c0 := store.Counters()
	if c0.Hits != 0 || c0.Misses == 0 {
		t.Fatalf("cold counters = %+v", c0)
	}

	// Same spec again: everything hits, output identical to scratch.
	warm, err := CompileCtx(ctx, testSpec(4), nil)
	if err != nil {
		t.Fatalf("warm compile: %v", err)
	}
	c1 := store.Counters()
	if c1.Misses != c0.Misses {
		t.Fatalf("warm compile missed: %+v vs %+v", c1, c0)
	}
	if c1.Hits == 0 {
		t.Fatalf("warm compile never hit: %+v", c1)
	}
	if got, want := renderCIF(t, warm), renderCIF(t, cold); got != want {
		t.Fatal("warm compile CIF differs from cold")
	}

	// One-element edit: the const's value. The edited compile through the
	// warm store must match a scratch compile byte for byte.
	edited := testSpec(4)
	edited.Elements[4].Params["value"] = "2"
	scratch, err := Compile(testSpecEdit(4, "2"), nil)
	if err != nil {
		t.Fatalf("scratch compile of edit: %v", err)
	}
	incrChip, err := CompileCtx(ctx, edited, nil)
	if err != nil {
		t.Fatalf("incremental compile of edit: %v", err)
	}
	if got, want := renderCIF(t, incrChip), renderCIF(t, scratch); got != want {
		t.Fatal("incremental CIF differs from scratch after a one-element edit")
	}
	c2 := store.Counters()
	if c2.Invalidations == 0 {
		t.Fatal("edit displaced no artifact: invalidation accounting broken")
	}
	if c2.Hits <= c1.Hits {
		t.Fatal("edited compile reused nothing")
	}
}

// testSpecEdit is testSpec with the const element's value replaced,
// built fresh so the scratch arm shares no state with the edited spec.
func testSpecEdit(width int, value string) *Spec {
	s := testSpec(width)
	s.Elements[4].Params["value"] = value
	return s
}

// TestIncrementalDiskWarmsAcrossStores pins the durable layer end to end:
// a fresh store over the same directory serves the stretch artifacts from
// disk (gob round trip) and the chip stays byte-identical.
func TestIncrementalDiskWarmsAcrossStores(t *testing.T) {
	dir := t.TempDir()
	s1, err := incr.New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Close() })
	cold, err := CompileCtx(incr.WithStore(context.Background(), s1), testSpec(4), nil)
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}

	s2, err := incr.New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	warm, err := CompileCtx(incr.WithStore(context.Background(), s2), testSpec(4), nil)
	if err != nil {
		t.Fatalf("disk-warm compile: %v", err)
	}
	if s2.Counters().DiskHits == 0 {
		t.Fatal("fresh store over a warm directory took no disk hits")
	}
	if got, want := renderCIF(t, warm), renderCIF(t, cold); got != want {
		t.Fatal("disk-rehydrated compile differs from cold: gob round trip not byte-identical")
	}
}

// TestVoteShiftReKeysStretchOnly pins the two-level keying: the voted
// globals (rail widening, pitch, bus targets) re-key every stretch
// artifact but leave the gen keys untouched, so a power-vote shift
// re-stretches cached geometry instead of regenerating it.
func TestVoteShiftReKeysStretchOnly(t *testing.T) {
	spec := testSpec(4)
	e := &spec.Elements[0]
	k1 := genKeyFor(spec, e, 0, 5, "busA", "busB", "", "", nil)
	k2 := genKeyFor(spec, e, 0, 5, "busA", "busB", "", "", nil)
	if k1 != k2 {
		t.Fatal("genKeyFor not deterministic")
	}

	base := stretchKeyFor("gk/cell", 0, geom.L(52), geom.L(10), geom.L(40))
	for i, k := range []string{
		stretchKeyFor("gk/cell", geom.L(1), geom.L(52), geom.L(10), geom.L(40)),
		stretchKeyFor("gk/cell", 0, geom.L(54), geom.L(10), geom.L(40)),
		stretchKeyFor("gk/cell", 0, geom.L(52), geom.L(12), geom.L(40)),
		stretchKeyFor("gk/cell", 0, geom.L(52), geom.L(10), geom.L(42)),
		stretchKeyFor("gk/other", 0, geom.L(52), geom.L(10), geom.L(40)),
	} {
		if k == base {
			t.Fatalf("stretch key input %d not folded into the key", i)
		}
	}
	if stretchKeyFor("gk/cell", 0, geom.L(52), geom.L(10), geom.L(40)) != base {
		t.Fatal("stretchKeyFor not deterministic")
	}
}

// TestGenKeySensitivity pins the gen key's coverage of everything the
// fan-out task reads: params, width, bus context, position, end flags.
func TestGenKeySensitivity(t *testing.T) {
	spec := testSpec(4)
	e := &spec.Elements[4] // const k1
	base := genKeyFor(spec, e, 4, 5, "busA", "busB", "busA", "busB", nil)

	edited := testSpecEdit(4, "2")
	variants := []string{
		genKeyFor(edited, &edited.Elements[4], 4, 5, "busA", "busB", "busA", "busB", nil),
		genKeyFor(spec, e, 3, 5, "busA", "busB", "busA", "busB", nil), // position
		genKeyFor(spec, e, 4, 6, "busA", "busB", "busA", "busB", nil), // no longer last
		genKeyFor(spec, e, 4, 5, "busX", "busB", "busA", "busB", nil), // bus context
		genKeyFor(spec, e, 4, 5, "busA", "busB", "busX", "busB", nil), // break decision
	}
	wider := testSpec(8)
	variants = append(variants, genKeyFor(wider, &wider.Elements[4], 4, 5, "busA", "busB", "busA", "busB", nil))
	for i, k := range variants {
		if k == base {
			t.Fatalf("gen key input %d not folded into the key", i)
		}
	}
}

// TestCloneColumnsIsolation pins the clone contract: a compile's private
// columns share the immutable cells but nothing mutable with the cached
// artifact.
func TestCloneColumnsIsolation(t *testing.T) {
	brk, err := genBusBreak("a", "b", "c", "d", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	brk.model = &constModel{name: "k", busNet: "busA", rdName: "rd", value: 3}
	orig := []*column{brk}

	cl := cloneColumns(orig)
	if cl[0] == brk {
		t.Fatal("column struct shared")
	}
	if cl[0].name != brk.name || cl[0].elemIdx != brk.elemIdx {
		t.Fatal("column fields not copied")
	}
	if &cl[0].cells[0] == &brk.cells[0] {
		t.Fatal("cells slice header shared")
	}
	if cl[0].cells[0] != brk.cells[0] {
		t.Fatal("cell pointers must be shared (cells are immutable)")
	}
	// The compile substitutes stretched cells into its slice; the cached
	// artifact must not see that.
	saved := brk.cells[0]
	cl[0].cells[0] = nil
	if brk.cells[0] != saved {
		t.Fatal("substitution into the clone reached the original")
	}
	m := cl[0].model.(*constModel)
	if m == brk.model.(*constModel) {
		t.Fatal("model shared: simulation state would leak between compiles")
	}
	if m.name != "k" || m.busNet != "busA" || m.rdName != "rd" || m.value != 3 {
		t.Fatalf("model configuration not cloned: %+v", m)
	}
}
