package cif

import (
	"bytes"
	"testing"

	"bristleblocks/internal/geom"
	"bristleblocks/internal/layer"
	"bristleblocks/internal/mask"
)

// writeString runs Write and fails the test on error.
func writeString(t *testing.T, top *mask.Cell, lambda int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, top, lambda); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.String()
}

// edgeCell exercises every writer branch: even- and odd-centre boxes,
// negative coordinates, multi-point wires and polygons, layer switches,
// names and labels that need sanitizing, every orientation op and one
// orientation with no op entry.
func edgeCell(t *testing.T) *mask.Cell {
	t.Helper()
	leaf := mask.NewCell("a b;c")
	leaf.AddBox(layer.Diff, geom.R(0, 0, 8, 8))
	leaf.AddBox(layer.Diff, geom.R(-3, 0, 2, 4)) // odd x centre
	leaf.AddBox(layer.Poly, geom.R(-6, -2, -2, 2))
	leaf.AddBox(layer.Poly, geom.R(-5, -5, -2, -2)) // odd negative centre
	leaf.AddWire(layer.Metal, 12, geom.Pt(0, 4), geom.Pt(40, 4), geom.Pt(40, 40), geom.Pt(-8, 40))
	if err := leaf.AddPoly(layer.Metal, geom.Polygon{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 5), geom.Pt(5, 5), geom.Pt(5, 10), geom.Pt(0, 10),
	}); err != nil {
		t.Fatal(err)
	}
	if err := leaf.AddPoly(layer.Diff, geom.Polygon{
		geom.Pt(-4, -4), geom.Pt(4, -4), geom.Pt(4, 4), geom.Pt(-4, 4),
	}); err != nil {
		t.Fatal(err)
	}
	leaf.AddLabel("in out", geom.Pt(1, 2), layer.Metal)
	leaf.AddLabel("", geom.Pt(0, 0), layer.Diff)
	leaf.AddLabel("x;y", geom.Pt(-1, -2), layer.Poly)
	leaf.AddLabel("\xffz", geom.Pt(3, 3), layer.Glass)

	top := mask.NewCell("")
	for i, o := range []geom.Orient{geom.R0, geom.R90, geom.R180, geom.R270, geom.MX, geom.MY, geom.MX90, geom.MY90, geom.Orient(99)} {
		top.Place(leaf, geom.Transform{Orient: o, Offset: geom.Pt(geom.Coord(10*i), geom.Coord(-20*i))})
	}
	return top
}

const edgeCIF = `(Bristle Blocks CIF output; lambda = 250 centimicrons);
DS 1 125 2;
9 a_b_c;
L ND;
B 8 8 4 4;
P -3 0 2 0 2 4 -3 4;
L NP;
B 4 4 -4 0;
P -5 -5 -2 -5 -2 -2 -5 -2;
L NM;
W 12 0 4 40 4 40 40 -8 40;
P 0 0 10 0 10 5 5 5 5 10 0 10;
L ND;
P -4 -4 4 -4 4 4 -4 4;
94 in_out 1 2 NM;
94 unnamed 0 0 ND;
94 x_y -1 -2 NP;
94 ` + "\uFFFD" + `z 3 3 NG;
DF;
DS 2 125 2;
9 unnamed;
C 1 T 0 0;
C 1 R 0 1 T 10 -20;
C 1 R -1 0 T 20 -40;
C 1 R 0 -1 T 30 -60;
C 1 M Y T 40 -80;
C 1 M X T 50 -100;
C 1 M Y R 0 1 T 60 -120;
C 1 M X R 0 1 T 70 -140;
C 1 T 80 -160;
DF;
C 2;
E
`

func TestWriteEdgeCasesExact(t *testing.T) {
	if got := writeString(t, edgeCell(t), DefaultLambdaCentimicrons); got != edgeCIF {
		t.Errorf("CIF differs\n got:\n%s\nwant:\n%s", got, edgeCIF)
	}
}

func TestWriteScaleLine(t *testing.T) {
	top := mask.NewCell("top")
	top.AddBox(layer.Metal, geom.R(0, 0, 4, 4))
	for _, tc := range []struct {
		lambda int
		want   string
	}{
		{250, "(Bristle Blocks CIF output; lambda = 250 centimicrons);\nDS 1 125 2;\n"},
		{100, "(Bristle Blocks CIF output; lambda = 100 centimicrons);\nDS 1 25 1;\n"},
		{3, "(Bristle Blocks CIF output; lambda = 3 centimicrons);\nDS 1 3 4;\n"},
	} {
		want := tc.want + "9 top;\nL NM;\nB 4 4 2 2;\nDF;\nC 1;\nE\n"
		if got := writeString(t, top, tc.lambda); got != want {
			t.Errorf("lambda %d:\n got %q\nwant %q", tc.lambda, got, want)
		}
	}
}

func TestAppendMatchesWrite(t *testing.T) {
	prefix := []byte("keep;")
	got, err := Append(prefix, edgeCell(t), DefaultLambdaCentimicrons)
	if err != nil {
		t.Fatal(err)
	}
	if want := "keep;" + edgeCIF; string(got) != want {
		t.Errorf("Append differs from Write\n got:\n%s\nwant:\n%s", got, want)
	}
	got, err = Append(prefix, mask.NewCell("x"), 0)
	if err == nil || string(got) != "keep;" {
		t.Errorf("bad lambda: Append = %q, %v; want the prefix and an error", got, err)
	}
}
