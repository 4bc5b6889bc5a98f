package transistor

import (
	"reflect"
	"strings"
	"testing"

	"bristleblocks/internal/geom"
	"bristleblocks/internal/layer"
	"bristleblocks/internal/mask"
)

func TestNetlistSignatureAndEqual(t *testing.T) {
	a := &Netlist{}
	a.AddEnh("in", "gnd", "out", 8, 8)
	a.AddDep("out", "out", "vdd", 8, 32)

	b := &Netlist{}
	b.AddDep("out", "vdd", "out", 8, 32) // source/drain swapped
	b.AddEnh("in", "out", "gnd", 8, 8)

	if !a.Equal(b) {
		t.Errorf("netlists should be equal up to s/d swap and order:\n%s", a.Diff(b))
	}
	if d := a.Diff(b); d != "" {
		t.Errorf("Diff of equal netlists = %q", d)
	}

	c := &Netlist{}
	c.AddEnh("in", "gnd", "out", 8, 8)
	if a.Equal(c) {
		t.Error("different netlists compared equal")
	}
	d := a.Diff(c)
	if !strings.Contains(d, "only in first") {
		t.Errorf("Diff = %q", d)
	}
}

func TestNetlistMergeRenamed(t *testing.T) {
	n := &Netlist{}
	n.AddDep("vdd", "vdd", "x", 0, 0)
	sub := &Netlist{}
	sub.AddEnh("a", "b", "c", 0, 0)
	sub.AddEnh("c", "b", "a", 0, 0)
	calls := 0
	n.MergeRenamed(sub, func(s string) string {
		calls++
		return map[string]string{"a": "in", "c": "out"}[s] + "/" + s
	})
	want := []Tx{
		{Kind: Dep, Gate: "vdd", Source: "vdd", Drain: "x"},
		{Kind: Enh, Gate: "in/a", Source: "/b", Drain: "out/c"},
		{Kind: Enh, Gate: "out/c", Source: "/b", Drain: "in/a"},
	}
	if !reflect.DeepEqual(n.Txs, want) {
		t.Fatalf("merged = %v, want %v", n.Txs, want)
	}
	if calls != 3 {
		t.Errorf("name called %d times for 3 distinct nets", calls)
	}
	if sub.Txs[0].Gate != "a" {
		t.Error("MergeRenamed rewrote its source netlist")
	}
}

func TestNetlistMergeCopy(t *testing.T) {
	a := &Netlist{}
	a.AddEnh("x", "y", "z", 0, 0)
	b := a.Copy()
	b.AddEnh("p", "q", "r", 0, 0)
	if len(a.Txs) != 1 || len(b.Txs) != 2 {
		t.Error("Copy should isolate")
	}
	a.Merge(b)
	if len(a.Txs) != 3 {
		t.Error("Merge failed")
	}
}

func TestSubtract(t *testing.T) {
	r := geom.R(0, 0, 10, 10)
	got := subtractOne(r, geom.R(4, 4, 6, 6))
	if geom.UnionArea(got) != 96 {
		t.Errorf("center hole area = %d", geom.UnionArea(got))
	}
	got = subtractOne(r, geom.R(20, 20, 30, 30))
	if len(got) != 1 || got[0] != r {
		t.Errorf("disjoint subtract = %v", got)
	}
	got = subtractOne(r, geom.R(-5, -5, 15, 15))
	if len(got) != 0 {
		t.Errorf("covering subtract = %v", got)
	}
	got = subtractMany(r, []geom.Rect{geom.R(0, 0, 10, 5), geom.R(0, 5, 10, 10)})
	if len(got) != 0 {
		t.Errorf("two-piece cover = %v", got)
	}
}

// buildInverter lays out a textbook nMOS inverter: vertical diffusion
// strip, enhancement pulldown gated by "in", depletion pullup with its gate
// tied to "out" through a metal contact.
func buildInverter() *mask.Cell {
	c := mask.NewCell("inv")
	// Diffusion strip.
	c.AddBox(layer.Diff, geom.R(0, 0, 8, 96))
	// GND rail and contact.
	c.AddBox(layer.Metal, geom.R(-16, -8, 24, 4))
	c.AddBox(layer.Contact, geom.R(0, -4, 8, 4))
	c.AddLabel("gnd", geom.Pt(-10, -2), layer.Metal)
	// Pulldown gate.
	c.AddBox(layer.Poly, geom.R(-8, 16, 16, 24))
	c.AddLabel("in", geom.Pt(-6, 20), layer.Poly)
	// Output metal and contact to diffusion.
	c.AddBox(layer.Metal, geom.R(-4, 38, 24, 50))
	c.AddBox(layer.Contact, geom.R(0, 40, 8, 48))
	c.AddLabel("out", geom.Pt(20, 44), layer.Metal)
	// Depletion gate with implant, gate tied to out via side poly + contact.
	c.AddBox(layer.Poly, geom.R(-8, 64, 16, 72))
	c.AddBox(layer.Poly, geom.R(16, 44, 24, 72))
	c.AddBox(layer.Contact, geom.R(16, 42, 24, 50))
	c.AddBox(layer.Implant, geom.R(-10, 62, 18, 74))
	// VDD rail and contact.
	c.AddBox(layer.Metal, geom.R(-16, 92, 24, 104))
	c.AddBox(layer.Contact, geom.R(0, 88, 8, 96))
	c.AddLabel("vdd", geom.Pt(-10, 100), layer.Metal)
	return c
}

func TestExtractInverter(t *testing.T) {
	nl, err := Extract(buildInverter())
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	want := &Netlist{}
	want.AddEnh("in", "gnd", "out", 8, 8)
	want.AddDep("out", "out", "vdd", 8, 8)
	if !nl.Equal(want) {
		t.Errorf("inverter netlist mismatch:\n%s\ngot:\n%s", want.Diff(nl), nl)
	}
	// Extracted sizes: both channels are 2λ x 2λ here.
	for _, tx := range nl.Txs {
		if tx.W != 8 || tx.L != 8 {
			t.Errorf("tx %v: W,L = %d,%d, want 8,8", tx, tx.W, tx.L)
		}
	}
}

func TestExtractBuriedContact(t *testing.T) {
	// Depletion pullup with the classic buried-contact gate-to-source tie.
	c := mask.NewCell("pullup")
	c.AddBox(layer.Diff, geom.R(0, 0, 8, 96))
	c.AddBox(layer.Metal, geom.R(-16, -8, 24, 4))
	c.AddBox(layer.Contact, geom.R(0, -4, 8, 4))
	c.AddLabel("out", geom.Pt(-10, -2), layer.Metal)
	// Poly covers diff from y=52 to 72; buried cut un-gates y in [52,60].
	c.AddBox(layer.Poly, geom.R(-8, 52, 16, 72))
	c.AddBox(layer.Buried, geom.R(0, 52, 8, 60))
	c.AddBox(layer.Implant, geom.R(-10, 58, 18, 74))
	c.AddBox(layer.Metal, geom.R(-16, 92, 24, 104))
	c.AddBox(layer.Contact, geom.R(0, 88, 8, 96))
	c.AddLabel("vdd", geom.Pt(-10, 100), layer.Metal)

	nl, err := Extract(c)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	want := &Netlist{}
	want.AddDep("out", "out", "vdd", 0, 0)
	if !nl.Equal(want) {
		t.Errorf("buried pullup mismatch:\n%s\ngot:\n%s", want.Diff(nl), nl)
	}
}

func TestExtractPassTransistorHorizontal(t *testing.T) {
	// Horizontal diffusion with a vertical poly gate: current flows in x.
	c := mask.NewCell("pass")
	c.AddBox(layer.Diff, geom.R(0, 0, 60, 8))
	c.AddBox(layer.Poly, geom.R(24, -8, 32, 16))
	c.AddLabel("g", geom.Pt(28, -6), layer.Poly)
	c.AddLabel("a", geom.Pt(2, 2), layer.Diff)
	c.AddLabel("b", geom.Pt(58, 2), layer.Diff)

	nl, err := Extract(c)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	want := &Netlist{}
	want.AddEnh("g", "a", "b", 0, 0)
	if !nl.Equal(want) {
		t.Errorf("pass transistor mismatch:\n%s\ngot:\n%s", want.Diff(nl), nl)
	}
	if nl.Txs[0].W != 8 || nl.Txs[0].L != 8 {
		t.Errorf("W,L = %d,%d", nl.Txs[0].W, nl.Txs[0].L)
	}
}

func TestExtractTwoTransistorsSharedGate(t *testing.T) {
	// One poly line crossing two separate diffusion strips: two transistors
	// sharing a gate net, not one merged device.
	c := mask.NewCell("pair")
	c.AddBox(layer.Diff, geom.R(0, 0, 40, 8))
	c.AddBox(layer.Diff, geom.R(0, 40, 40, 48))
	c.AddBox(layer.Poly, geom.R(16, -8, 24, 56))
	c.AddLabel("g", geom.Pt(20, -6), layer.Poly)
	c.AddLabel("a1", geom.Pt(2, 2), layer.Diff)
	c.AddLabel("b1", geom.Pt(38, 2), layer.Diff)
	c.AddLabel("a2", geom.Pt(2, 44), layer.Diff)
	c.AddLabel("b2", geom.Pt(38, 44), layer.Diff)

	nl, err := Extract(c)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if len(nl.Txs) != 2 {
		t.Fatalf("extracted %d transistors, want 2:\n%s", len(nl.Txs), nl)
	}
	want := &Netlist{}
	want.AddEnh("g", "a1", "b1", 0, 0)
	want.AddEnh("g", "a2", "b2", 0, 0)
	if !nl.Equal(want) {
		t.Errorf("shared-gate mismatch:\n%s", want.Diff(nl))
	}
}

func TestExtractUnlabeledNetsAreStable(t *testing.T) {
	c := mask.NewCell("anon")
	c.AddBox(layer.Diff, geom.R(0, 0, 60, 8))
	c.AddBox(layer.Poly, geom.R(24, -8, 32, 16))
	n1, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	if n1.Signature(true) != n2.Signature(true) {
		t.Error("extraction is not deterministic")
	}
	for _, tx := range n1.Txs {
		if tx.Gate == "" || tx.Source == "" || tx.Drain == "" {
			t.Error("empty net name")
		}
	}
}

func TestExtractDanglingGateFails(t *testing.T) {
	// Poly ends in the middle of diffusion: no opposing terminals on one
	// side pair -> the diffusion stays connected around the channel end,
	// so both "terminals" are the same net; extraction still succeeds.
	// A gate fully covering a diffusion island, however, has no terminals
	// and must fail.
	c := mask.NewCell("bad")
	c.AddBox(layer.Diff, geom.R(0, 0, 8, 8))
	c.AddBox(layer.Poly, geom.R(-4, -4, 12, 12))
	if _, err := Extract(c); err == nil {
		t.Error("fully covered diffusion island should fail extraction")
	}
}

func TestExtractHierarchical(t *testing.T) {
	inv := buildInverter()
	top := mask.NewCell("top")
	top.Place(inv, geom.Translate(0, 0))
	top.Place(inv, geom.Translate(200, 0))
	nl, err := Extract(top)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if len(nl.Txs) != 4 {
		t.Fatalf("extracted %d transistors, want 4", len(nl.Txs))
	}
}
