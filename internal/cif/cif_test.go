package cif

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bristleblocks/internal/geom"
	"bristleblocks/internal/layer"
	"bristleblocks/internal/mask"
)

func buildSample() *mask.Cell {
	leaf := mask.NewCell("leaf")
	leaf.AddBox(layer.Diff, geom.R(0, 0, 8, 8))
	leaf.AddBox(layer.Poly, geom.R(2, -4, 6, 12))
	leaf.AddWire(layer.Metal, 12, geom.Pt(0, 4), geom.Pt(40, 4), geom.Pt(40, 40))
	leaf.AddLabel("in", geom.Pt(0, 4), layer.Metal)

	mid := mask.NewCell("mid")
	mid.Place(leaf, geom.Translate(0, 0))
	mid.Place(leaf, geom.At(geom.MX, 0, 100))
	mid.Place(leaf, geom.At(geom.R90, 80, 0))

	top := mask.NewCell("top")
	top.Place(mid, geom.Translate(0, 0))
	top.Place(mid, geom.At(geom.R180, 300, 300))
	top.AddBox(layer.Glass, geom.R(0, 0, 48, 48))
	return top
}

// flatSignature summarizes flattened geometry for equality checks that are
// insensitive to primitive kind (wire vs box vs polygon rects).
func flatSignature(c *mask.Cell) []string {
	var sig []string
	c.Flatten(func(l layer.Layer, r geom.Rect) {
		sig = append(sig, l.Name()+r.String())
	})
	sort.Strings(sig)
	return sig
}

func TestRoundTrip(t *testing.T) {
	top := buildSample()
	var buf bytes.Buffer
	if err := Write(&buf, top, DefaultLambdaCentimicrons); err != nil {
		t.Fatalf("Write: %v", err)
	}
	f, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Top.Name != "top" {
		t.Errorf("top name = %q", f.Top.Name)
	}
	if f.LambdaCentimicrons != DefaultLambdaCentimicrons {
		t.Errorf("lambda = %d", f.LambdaCentimicrons)
	}
	if got, want := flatSignature(f.Top), flatSignature(top); !reflect.DeepEqual(got, want) {
		t.Errorf("flattened geometry differs\n got %d rects\nwant %d rects", len(got), len(want))
	}
	// Hierarchy preserved: three distinct cells.
	if got := len(f.Cells); got != 3 {
		t.Errorf("parsed %d cells, want 3", got)
	}
}

func TestRoundTripAllOrientations(t *testing.T) {
	leaf := mask.NewCell("leaf")
	leaf.AddBox(layer.Diff, geom.R(0, 0, 4, 10)) // asymmetric so orientation matters
	for _, o := range []geom.Orient{geom.R0, geom.R90, geom.R180, geom.R270, geom.MX, geom.MX90, geom.MY, geom.MY90} {
		top := mask.NewCell("top")
		top.Place(leaf, geom.At(o, 32, -16))
		var buf bytes.Buffer
		if err := Write(&buf, top, 250); err != nil {
			t.Fatalf("%v: Write: %v", o, err)
		}
		f, err := Parse(&buf)
		if err != nil {
			t.Fatalf("%v: Parse: %v", o, err)
		}
		if got, want := flatSignature(f.Top), flatSignature(top); !reflect.DeepEqual(got, want) {
			t.Errorf("orientation %v does not round-trip: got %v want %v", o, got, want)
		}
	}
}

func TestLabelsRoundTrip(t *testing.T) {
	top := mask.NewCell("top")
	top.AddBox(layer.Metal, geom.R(0, 0, 12, 12))
	top.AddLabel("vdd", geom.Pt(6, 6), layer.Metal)
	var buf bytes.Buffer
	if err := Write(&buf, top, 250); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Top.Labels) != 1 || f.Top.Labels[0].Text != "vdd" ||
		f.Top.Labels[0].At != geom.Pt(6, 6) || f.Top.Labels[0].Layer != layer.Metal {
		t.Errorf("labels = %+v", f.Top.Labels)
	}
}

func TestOddBoxAsPolygon(t *testing.T) {
	top := mask.NewCell("top")
	top.AddBox(layer.Poly, geom.R(0, 0, 5, 3)) // odd extents: no exact center
	var buf bytes.Buffer
	if err := Write(&buf, top, 250); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "P 0 0 5 0 5 3 0 3;") {
		t.Errorf("odd box should be emitted as polygon:\n%s", text)
	}
	f, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Top.AreaByLayer()[layer.Poly]; got != 15 {
		t.Errorf("area = %d, want 15", got)
	}
}

func TestParseHandWrittenCIF(t *testing.T) {
	src := `(hand written example);
DS 1 125 2;
9 inv;
L ND; B 4 12 2 6;
L NP; W 2 -2 6 6 6;
DF;
DS 2 125 2;
9 pair;
C 1 T 0 0;
C 1 M X T 20 0;
DF;
C 2;
E
`
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Top.Name != "pair" {
		t.Errorf("top = %q", f.Top.Name)
	}
	if f.LambdaCentimicrons != 250 {
		t.Errorf("lambda = %d", f.LambdaCentimicrons)
	}
	rects := f.Top.FlatRects()
	if len(rects) != 4 { // 2 instances x (1 box + 1 wire segment)
		t.Fatalf("flat rects = %d", len(rects))
	}
	bb := f.Top.BBox()
	if bb.MinX > -3 || bb.MaxX < 20 {
		t.Errorf("bbox = %v", bb)
	}
}

func TestParseNoTopCall(t *testing.T) {
	src := `DS 1 1 1; L ND; B 2 2 1 1; DF; DS 2 1 1; C 1 T 4 0; DF; E`
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.Top.Name != "sym2" {
		t.Errorf("uncalled symbol should be top, got %q", f.Top.Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`DS 1 1 1; L XX; DF; E`,                 // unknown layer
		`DS 1 1 1; DS 2 1 1; DF; DF; E`,         // nested DS
		`DF; E`,                                 // DF outside DS
		`DS 1 1 1; L ND; B 2 2; DF; E`,          // short box
		`DS 1 1 1; C 9 T 0 0; DF; C 1; E`,       // undefined call
		`DS 1 1 1; L ND; B 2 2 1 1;`,            // unterminated DS
		`(unterminated comment`,                 // comment error
		`DS 1 1 1; L ND; FOO 1 2; DF; E`,        // unknown command
		`DS 1 1 1; C 1 R 1 1 T 0 0; DF; C 1; E`, // non-Manhattan rotation
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestWriteRejectsBadLambda(t *testing.T) {
	for _, lambda := range []int{0, -250} {
		var buf bytes.Buffer
		err := Write(&buf, mask.NewCell("x"), lambda)
		if err == nil || !strings.HasPrefix(err.Error(), "cif: non-positive lambda") {
			t.Errorf("lambda %d: error %v, want non-positive lambda", lambda, err)
		}
		if buf.Len() != 0 {
			t.Errorf("lambda %d: wrote %d bytes before failing", lambda, buf.Len())
		}
	}
}

func TestUnknownExtensionSkipped(t *testing.T) {
	src := `DS 1 1 1; 42 whatever 1 2 3; L ND; B 2 2 1 1; DF; C 1; E`
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("extensions should be skipped: %v", err)
	}
	if len(f.Top.Boxes) != 1 {
		t.Error("box lost")
	}
}
