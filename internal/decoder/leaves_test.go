package decoder

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bristleblocks/internal/cell"
	"bristleblocks/internal/celllib"
	"bristleblocks/internal/geom"
	"bristleblocks/internal/transistor"
)

// stampFresh is the reference the leaf templates replace: stamp a freshly
// generated leaf flat, renaming through a map and prefixing every other
// net with the leaf's own cell name.
func stampFresh(dst, sub *cell.Cell, t geom.Transform, rename map[string]string) {
	final := func(n string) string {
		if r, ok := rename[n]; ok {
			return r
		}
		return sub.Name + "." + n
	}
	for _, b := range sub.Layout.Boxes {
		dst.Layout.AddBox(b.Layer, t.ApplyRect(b.R))
	}
	for _, w := range sub.Layout.Wires {
		pts := make([]geom.Point, len(w.Path))
		for i, p := range w.Path {
			pts[i] = t.Apply(p)
		}
		dst.Layout.AddWire(w.Layer, w.Width, pts...)
	}
	for _, lb := range sub.Layout.Labels {
		dst.Layout.AddLabel(final(lb.Text), t.Apply(lb.At), lb.Layer)
	}
	for _, tx := range sub.Netlist.Txs {
		tx.Gate, tx.Source, tx.Drain = final(tx.Gate), final(tx.Source), final(tx.Drain)
		dst.Netlist.Add(tx)
	}
}

func stampTarget() *cell.Cell {
	c := cell.New("target", geom.R(0, 0, geom.L(100), geom.L(100)))
	c.Netlist = &transistor.Netlist{}
	return c
}

func sameStamp(t *testing.T, what string, got, want *cell.Cell) {
	t.Helper()
	g, w := got.Layout, want.Layout
	if !reflect.DeepEqual(g.Boxes, w.Boxes) || !reflect.DeepEqual(g.Wires, w.Wires) ||
		!reflect.DeepEqual(g.Polys, w.Polys) {
		t.Fatalf("%s: template geometry differs from a fresh leaf's", what)
	}
	if !reflect.DeepEqual(g.Labels, w.Labels) {
		t.Fatalf("%s: labels differ:\n got %v\nwant %v", what, g.Labels, w.Labels)
	}
	if !reflect.DeepEqual(got.Netlist.Txs, want.Netlist.Txs) {
		t.Fatalf("%s: netlists differ:\n got %v\nwant %v", what, got.Netlist.Txs, want.Netlist.Txs)
	}
}

// TestCtlBufTemplateMatchesFresh stamps every control from its phase's
// template and from celllib.CtlBuf(name, phase) under the decoder's old
// rename map, and requires the same boxes, wires, labels and netlist,
// including for names that equal the buffer's own nets and names with
// separators in them.
func TestCtlBufTemplateMatchesFresh(t *testing.T) {
	bufs, err := bufTemplates()
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		"ld", "r0.ld", "alu.op",
		"n", "plaout", "phi1", "phi2", "gnd", "vdd", "inv", "inv.in", "in", "out",
		"a.b", "x[3]", "ctlbuf[ld]", "[", "]", "two words", " ", ".",
	}
	tr := geom.Translate(geom.L(24), geom.L(40))
	for _, phase := range []int{1, 2} {
		for _, name := range names {
			fresh, err := celllib.CtlBuf(name, phase)
			if err != nil {
				t.Fatal(err)
			}
			want := stampTarget()
			stampFresh(want, fresh, tr, map[string]string{
				"plaout": "plaout." + name,
				"n":      name + ".n",
				"gnd":    "gnd", "vdd": "vdd", "phi1": "phi1", "phi2": "phi2",
				name: name,
			})
			got := stampTarget()
			if err := celllib.StampLeaf(got, bufs[phase-1], tr, ctlBufNets(name, "plaout."+name)); err != nil {
				t.Fatal(err)
			}
			sameStamp(t, fmt.Sprintf("phase %d control %q", phase, name), got, want)
		}
	}
}

// TestDriverTemplateMatchesFresh does the same for the input drivers,
// through the decoder itself: its inverters must carry the nets a fresh
// celllib.Inverter("drv<bit>") stamp gives them.
func TestDriverTemplateMatchesFresh(t *testing.T) {
	res := buildTestDecoder(t, nil)
	var drivers []transistor.Tx
	for _, tx := range res.Layout.Cell.Netlist.Txs {
		if strings.HasPrefix(tx.Drain, "nu") || strings.HasPrefix(tx.Source, "nu") {
			drivers = append(drivers, tx)
		}
	}
	want := stampTarget()
	for _, bit := range res.Array.UsedInputs() {
		stampFresh(want, celllib.Inverter(fmt.Sprintf("drv%d", bit)), geom.Transform{}, map[string]string{
			"in": fmt.Sprintf("u%d", bit), "out": fmt.Sprintf("nu%d", bit), "gnd": "gnd", "vdd": "vdd",
		})
	}
	if !reflect.DeepEqual(drivers, want.Netlist.Txs) {
		t.Fatalf("driver netlist:\n got %v\nwant %v", drivers, want.Netlist.Txs)
	}
}

// TestBufferPhaseError keeps CtlBuf's error for a phase the templates do
// not cover (BuildArray rejects one first, so the layout is called
// directly).
func TestBufferPhaseError(t *testing.T) {
	a, err := BuildArray(fmt16(t), testSpecs())
	if err != nil {
		t.Fatal(err)
	}
	ops, err := CompileSilicon(a)
	if err != nil {
		t.Fatal(err)
	}
	a.Controls[2].Phase = 3
	_, want := celllib.CtlBuf(a.Controls[2].Name, 3)
	if _, err := buildLayout(a, ops, len(ops), nil, nil); err == nil || err.Error() != want.Error() {
		t.Fatalf("phase 3 layout error = %v, want %v", err, want)
	}
}

// TestBuildConcurrent runs GOMAXPROCS decoder builds at once over
// distinct control names, all stamping the shared templates, and checks
// each against the same build run alone. Under -race it also shows that
// nothing writes a template after construction.
func TestBuildConcurrent(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	f := fmt16(t)
	specsFor := func(i int) []ControlSpec {
		specs := testSpecs()
		for k := range specs {
			specs[k].Name = fmt.Sprintf("g%d.%s", i, specs[k].Name)
		}
		return specs
	}
	got := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = Build(f, specsFor(i), &Options{Parallelism: 1})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := Build(f, specsFor(i), &Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		sameStamp(t, fmt.Sprintf("build %d", i), got[i].Layout.Cell, want.Layout.Cell)
	}
}

// BenchmarkBuildLayout is Pass 2's layout step alone: the PLA planes,
// the driver and buffer rows stamped from the leaf templates, and the
// control channel, for the package's test decoder.
func BenchmarkBuildLayout(b *testing.B) {
	f, err := ParseFormat("width 10; OP 0 3; SRC 3 3; DST 6 3; EN 9 1")
	if err != nil {
		b.Fatal(err)
	}
	a, err := BuildArray(f, testSpecs())
	if err != nil {
		b.Fatal(err)
	}
	a.MinimizeAndOptimize(1)
	ops, err := CompileSilicon(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildLayout(a, ops, len(ops), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
