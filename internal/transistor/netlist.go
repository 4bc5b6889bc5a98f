// Package transistor implements the Transistor level of representation: an
// nMOS transistor netlist, plus an extractor that recovers the netlist from
// mask geometry. Every library cell's declared netlist is cross-checked
// against the extraction of its own layout, which is the repository's main
// representation-consistency invariant.
package transistor

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"bristleblocks/internal/geom"
)

// Kind distinguishes enhancement-mode from depletion-mode (implanted)
// transistors.
type Kind uint8

const (
	// Enh is an enhancement-mode transistor (switch).
	Enh Kind = iota
	// Dep is a depletion-mode transistor (load / pullup).
	Dep
)

// String names the transistor kind.
func (k Kind) String() string {
	if k == Dep {
		return "dep"
	}
	return "enh"
}

// Tx is one transistor. Source and drain are interchangeable in nMOS; the
// netlist stores them in a canonical order (lexicographic by net name).
type Tx struct {
	Kind          Kind
	Gate          string
	Source, Drain string
	// W and L are the channel width and length in quanta (0 = unspecified).
	W, L geom.Coord
	// At is the approximate gate location (diagnostics only).
	At geom.Point
}

// canonical returns tx with source/drain ordered.
func (t Tx) canonical() Tx {
	if t.Source > t.Drain {
		t.Source, t.Drain = t.Drain, t.Source
	}
	return t
}

// String renders one transistor as a netlist line.
func (t Tx) String() string {
	return fmt.Sprintf("%s g=%s s=%s d=%s w=%d l=%d", t.Kind, t.Gate, t.Source, t.Drain, t.W, t.L)
}

// Netlist is a set of transistors over named nets.
type Netlist struct {
	Txs []Tx
}

// Add appends a transistor.
func (n *Netlist) Add(t Tx) { n.Txs = append(n.Txs, t) }

// AddEnh appends an enhancement transistor.
func (n *Netlist) AddEnh(gate, source, drain string, w, l geom.Coord) {
	n.Add(Tx{Kind: Enh, Gate: gate, Source: source, Drain: drain, W: w, L: l})
}

// AddDep appends a depletion transistor.
func (n *Netlist) AddDep(gate, source, drain string, w, l geom.Coord) {
	n.Add(Tx{Kind: Dep, Gate: gate, Source: source, Drain: drain, W: w, L: l})
}

// Copy returns a deep copy.
func (n *Netlist) Copy() *Netlist {
	return &Netlist{Txs: append([]Tx(nil), n.Txs...)}
}

// Merge appends other's transistors.
func (n *Netlist) Merge(other *Netlist) {
	n.Txs = append(n.Txs, other.Txs...)
}

// MergeRenamed appends other's transistors, in order, with every net
// rewritten to name(net). A small memo calls name once per distinct net
// (leaf cells have at most a dozen), so a recurring net keeps one string.
func (n *Netlist) MergeRenamed(other *Netlist, name func(string) string) {
	var from, to [16]string
	seen := 0
	get := func(s string) string {
		for i := 0; i < seen; i++ {
			if from[i] == s {
				return to[i]
			}
		}
		r := name(s)
		if seen < len(from) {
			from[seen], to[seen] = s, r
			seen++
		}
		return r
	}
	n.Txs = slices.Grow(n.Txs, len(other.Txs))
	for _, t := range other.Txs {
		t.Gate, t.Source, t.Drain = get(t.Gate), get(t.Source), get(t.Drain)
		n.Txs = append(n.Txs, t)
	}
}

// Signature returns a canonical multiset string for structural comparison:
// transistors with source/drain normalized, sorted. Channel dimensions are
// included only when includeSize is set (extraction recovers sizes; declared
// netlists may omit them).
func (n *Netlist) Signature(includeSize bool) string {
	lines := make([]string, len(n.Txs))
	for i, t := range n.Txs {
		t = t.canonical()
		if includeSize {
			lines[i] = fmt.Sprintf("%s g=%s sd=%s/%s w=%d l=%d", t.Kind, t.Gate, t.Source, t.Drain, t.W, t.L)
		} else {
			lines[i] = fmt.Sprintf("%s g=%s sd=%s/%s", t.Kind, t.Gate, t.Source, t.Drain)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Equal reports whether two netlists are structurally identical (same
// transistor multiset up to source/drain swaps), ignoring sizes.
func (n *Netlist) Equal(other *Netlist) bool {
	return n.Signature(false) == other.Signature(false)
}

// Diff returns a human-readable description of the structural difference
// between two netlists, or "" when they match.
func (n *Netlist) Diff(other *Netlist) string {
	a, b := n.Signature(false), other.Signature(false)
	if a == b {
		return ""
	}
	have := make(map[string]int)
	for _, l := range strings.Split(a, "\n") {
		have[l]++
	}
	for _, l := range strings.Split(b, "\n") {
		have[l]--
	}
	var only, missing []string
	for l, c := range have {
		for ; c > 0; c-- {
			only = append(only, l)
		}
		for ; c < 0; c++ {
			missing = append(missing, l)
		}
	}
	sort.Strings(only)
	sort.Strings(missing)
	var sb strings.Builder
	for _, l := range only {
		fmt.Fprintf(&sb, "only in first:  %s\n", l)
	}
	for _, l := range missing {
		fmt.Fprintf(&sb, "only in second: %s\n", l)
	}
	return sb.String()
}

// String renders the netlist, one canonical transistor per line.
func (n *Netlist) String() string {
	return n.Signature(true)
}

// GlobalSignature canonicalizes the netlist for comparison up to renaming
// of non-global nets: every net not in the keep set becomes "*". Two
// netlists with equal global signatures have the same transistor multiset
// as seen from the global nets (buses, controls, supplies), which is the
// right equivalence when cells are instanced and their internal labels
// cannot be unique.
func (n *Netlist) GlobalSignature(keep map[string]bool) string {
	name := func(s string) string {
		if keep[s] {
			return s
		}
		return "*"
	}
	lines := make([]string, len(n.Txs))
	for i, t := range n.Txs {
		g, s1, d1 := name(t.Gate), name(t.Source), name(t.Drain)
		if s1 > d1 {
			s1, d1 = d1, s1
		}
		lines[i] = fmt.Sprintf("%s g=%s sd=%s/%s", t.Kind, g, s1, d1)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
