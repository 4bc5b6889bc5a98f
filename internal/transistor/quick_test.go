package transistor

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomNetlist builds a netlist from a seed: a few transistors over a
// small net universe, mixing kinds and sharing nets.
func randomNetlist(seed int64, n int) *Netlist {
	r := rand.New(rand.NewSource(seed))
	nl := &Netlist{}
	net := func() string { return fmt.Sprintf("n%d", r.Intn(6)) }
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			nl.AddDep(net(), net(), net(), 8, 8)
		} else {
			nl.AddEnh(net(), net(), net(), 8, 8)
		}
	}
	return nl
}

// TestQuickSignatureOrderInvariant: the signature must not depend on the
// order transistors were added.
func TestQuickSignatureOrderInvariant(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		count := int(n%8) + 1
		a := randomNetlist(seed, count)
		// Rebuild in reverse order.
		b := &Netlist{}
		for i := len(a.Txs) - 1; i >= 0; i-- {
			tx := a.Txs[i]
			b.Txs = append(b.Txs, tx)
		}
		return a.Signature(true) == b.Signature(true)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSignatureSourceDrainSymmetric: MOS source and drain are
// interchangeable; swapping them must not change the signature.
func TestQuickSignatureSourceDrainSymmetric(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		count := int(n%8) + 1
		a := randomNetlist(seed, count)
		b := a.Copy()
		for i := range b.Txs {
			b.Txs[i].Source, b.Txs[i].Drain = b.Txs[i].Drain, b.Txs[i].Source
		}
		return a.Equal(b) && a.Signature(true) == b.Signature(true)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGlobalSignatureRenameInvariant: renaming internal nets
// consistently never changes the global signature; the kept (global) nets
// anchor it.
func TestQuickGlobalSignatureRenameInvariant(t *testing.T) {
	keep := map[string]bool{"n0": true, "n1": true}
	f := func(seed int64, n uint8) bool {
		count := int(n%8) + 1
		a := randomNetlist(seed, count)
		b := &Netlist{}
		b.MergeRenamed(a, func(nn string) string {
			if keep[nn] {
				return nn
			}
			return "renamed_" + nn
		})
		return a.GlobalSignature(keep) == b.GlobalSignature(keep)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGlobalSignatureDetectsRewiring: moving one transistor's gate to
// a different kept net must change the global signature (the signature is
// not trivially constant).
func TestQuickGlobalSignatureDetectsRewiring(t *testing.T) {
	keep := map[string]bool{"n0": true, "n1": true}
	f := func(seed int64) bool {
		a := &Netlist{}
		a.AddEnh("n0", "x", "y", 8, 8)
		a.AddEnh("z", "n1", "x", 8, 8)
		b := a.Copy()
		b.Txs[0].Gate = "n1" // rewire to the other global
		return a.GlobalSignature(keep) != b.GlobalSignature(keep)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMergePreservesCount: merging netlists concatenates them.
func TestQuickMergePreservesCount(t *testing.T) {
	f := func(s1, s2 int64, n1, n2 uint8) bool {
		a := randomNetlist(s1, int(n1%8)+1)
		b := randomNetlist(s2, int(n2%8)+1)
		na, nb := len(a.Txs), len(b.Txs)
		a.Merge(b)
		return len(a.Txs) == na+nb && len(b.Txs) == nb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
