package pads

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"bristleblocks/internal/geom"
	"bristleblocks/internal/layer"
)

// testRequests builds requests spread over the boundary of a core box.
func testRequests(core geom.Rect) []Request {
	return []Request{
		{Net: "d0", Class: "io", At: geom.Pt(core.MinX, core.MinY+geom.L(20)), Layer: layer.Metal},
		{Net: "d1", Class: "io", At: geom.Pt(core.MinX, core.MinY+geom.L(80)), Layer: layer.Metal},
		{Net: "micro0", Class: "input", At: geom.Pt(core.MinX+geom.L(40), core.MaxY), Layer: layer.Poly},
		{Net: "micro1", Class: "input", At: geom.Pt(core.MinX+geom.L(100), core.MaxY), Layer: layer.Poly},
		{Net: "phi1", Class: "phi1", At: geom.Pt(core.MaxX, core.MaxY-geom.L(30)), Layer: layer.Poly},
		{Net: "phi2", Class: "phi2", At: geom.Pt(core.MaxX, core.MaxY-geom.L(50)), Layer: layer.Poly},
		{Net: "vdd", Class: "vdd", At: geom.Pt(core.MaxX, core.MinY+geom.L(40)), Layer: layer.Metal},
		{Net: "gnd", Class: "gnd", At: geom.Pt(core.MinX+geom.L(60), core.MinY), Layer: layer.Metal},
	}
}

func TestBuildRing(t *testing.T) {
	core := geom.R(0, 0, geom.L(400), geom.L(300))
	ring, err := Build(core, testRequests(core), nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if ring.PadCount != 8 {
		t.Errorf("pad count = %d, want 8", ring.PadCount)
	}
	if len(ring.Cell.Insts) != 8 {
		t.Errorf("placed pads = %d", len(ring.Cell.Insts))
	}
	if len(ring.Wires) != 8 {
		t.Errorf("wires = %d, want 8", len(ring.Wires))
	}
	if ring.TotalWireLen <= 0 {
		t.Error("no wire length recorded")
	}
	// The ring must enclose the core.
	if !ring.Bounds.ContainsRect(core) {
		t.Errorf("bounds %v do not contain core %v", ring.Bounds, core)
	}
	// Pads lie outside the core.
	for _, in := range ring.Cell.Insts {
		bb := in.T.ApplyRect(in.Cell.BBox())
		if bb.Overlaps(core) {
			t.Errorf("pad %v overlaps the core", bb)
		}
	}
}

func TestRotoRouterImproves(t *testing.T) {
	core := geom.R(0, 0, geom.L(400), geom.L(300))
	reqs := testRequests(core)
	best, err := Build(core, reqs, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	naive, err := Build(core, reqs, &Options{SkipRotoRouter: true})
	if err != nil {
		t.Fatalf("Build naive: %v", err)
	}
	if best.EstimatedLen > naive.EstimatedLen {
		t.Errorf("roto-router estimate %d worse than naive %d", best.EstimatedLen, naive.EstimatedLen)
	}
	if best.EstimatedLen > best.WorstLen {
		t.Error("best estimate exceeds worst")
	}
	if best.NaiveLen != naive.EstimatedLen {
		t.Errorf("naive bookkeeping wrong: %d vs %d", best.NaiveLen, naive.EstimatedLen)
	}
}

func TestSharedPads(t *testing.T) {
	core := geom.R(0, 0, geom.L(400), geom.L(300))
	reqs := testRequests(core)
	// Add more gnd and phi2 connection points: they must share pads.
	reqs = append(reqs,
		Request{Net: "gnd", Class: "gnd", At: geom.Pt(core.MaxX-geom.L(60), core.MinY), Layer: layer.Metal},
		Request{Net: "phi2", Class: "phi2", At: geom.Pt(core.MinX, core.MaxY-geom.L(40)), Layer: layer.Poly},
	)
	ring, err := Build(core, reqs, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if ring.PadCount != 8 {
		t.Errorf("pad count = %d, want 8 (shared pads)", ring.PadCount)
	}
	if len(ring.Wires) != 10 {
		t.Errorf("wires = %d, want 10 (extra branches)", len(ring.Wires))
	}
}

func TestEvenSpacing(t *testing.T) {
	// "The Roto-Router spaces the pads evenly around the chip": distances
	// between consecutive pad centers along the perimeter differ by at
	// most one step quantum.
	core := geom.R(0, 0, geom.L(300), geom.L(300))
	var reqs []Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, Request{
			Net: "d" + string(rune('0'+i)), Class: "io",
			At: geom.Pt(core.MinX, core.MinY+geom.Coord(i)*geom.L(20)), Layer: layer.Metal,
		})
	}
	ring, err := Build(core, reqs, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if ring.PadCount != 12 {
		t.Fatalf("pad count = %d", ring.PadCount)
	}
	// Each side gets pads; no pad overlaps another.
	var boxes []geom.Rect
	for _, in := range ring.Cell.Insts {
		boxes = append(boxes, in.T.ApplyRect(in.Cell.BBox()))
	}
	for i := range boxes {
		for j := i + 1; j < len(boxes); j++ {
			if boxes[i].Overlaps(boxes[j]) {
				t.Errorf("pads %d and %d overlap: %v %v", i, j, boxes[i], boxes[j])
			}
		}
	}
}

func TestTooManyPadsRejected(t *testing.T) {
	// A tiny core cannot host 40 pads at the base moat; the builder grows
	// the moat, but connection points buried inside the core stay
	// unroutable, so Build must report an error rather than silently
	// producing a broken ring.
	core := geom.R(0, 0, geom.L(60), geom.L(60))
	var reqs []Request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, Request{
			Net: "d" + itoa(i), Class: "io",
			At: core.Center(), Layer: layer.Metal,
		})
	}
	if _, err := Build(core, reqs, nil); err == nil {
		t.Error("impossible pad problem should fail")
	}
	// At a single attempt with the base moat, the fit check itself fires.
	if _, err := buildAttempt(core, reqs, &Options{}, geom.L(20)); err == nil || !strings.Contains(err.Error(), "do not fit") {
		t.Errorf("want does-not-fit error, got %v", err)
	}
}

func TestNoRequests(t *testing.T) {
	if _, err := Build(geom.R(0, 0, 100, 100), nil, nil); err == nil {
		t.Error("no requests should fail")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// countdownCtx is a context whose Err reports context.Canceled from its
// k-th call on (never, when k is 0), counting every call.
type countdownCtx struct {
	context.Context
	k     int32
	calls atomic.Int32
}

func (c *countdownCtx) Err() error {
	if n := c.calls.Add(1); c.k > 0 && n >= c.k {
		return context.Canceled
	}
	return nil
}

// TestBuildCtxCancelsBetweenUnits pins the routing loop's per-unit
// cancellation checkpoint: a cancellation that lands in the middle of a
// rip-up attempt must stop the pass with context.Canceled — not let the
// attempt finish into a ring, and not surface as a routing error.
func TestBuildCtxCancelsBetweenUnits(t *testing.T) {
	core := geom.R(0, 0, geom.L(400), geom.L(300))
	reqs := testRequests(core)
	probe := &countdownCtx{Context: context.Background()}
	if _, err := BuildCtx(probe, core, reqs, nil); err != nil {
		t.Fatal(err)
	}
	// One check per attempt and one per unit, plus BuildCtx's own final
	// check: a ring of len(reqs) units asks at least len(reqs)+2 times.
	total := probe.calls.Load()
	if total < int32(len(reqs))+2 {
		t.Fatalf("BuildCtx checked its context %d times for %d units", total, len(reqs))
	}
	for k := int32(2); k < total; k++ {
		ring, err := BuildCtx(&countdownCtx{Context: context.Background(), k: k}, core, reqs, nil)
		if ring != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at check %d of %d: ring %v, err %v; want context.Canceled", k, total, ring != nil, err)
		}
	}
}
