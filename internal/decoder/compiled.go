package decoder

// The compiled decode backend: the optimized text array lowered to word
// masks. The interpreted Array.Eval walks every term's cube byte by byte
// for every control on every phase of every simulated cycle; a compiled
// term is one (care, value) mask pair and matches with a single AND and
// compare. sim.Compile plugs this into the closure-chain simulator via
// the sim.CompiledDecoder interface.

import "bristleblocks/internal/sim"

// maskTerm is one product term as word masks: a microcode word matches
// when micro&care == val ('1' literals set both bits, '0' literals set
// only care, don't-cares set neither).
type maskTerm struct {
	care, val uint64
}

// Compiled is the decoder's PLA compiled for evaluation: per control, the
// mask-form terms that feed it. It is immutable after Compile and safe for
// concurrent use.
type Compiled struct {
	ctls  []ControlSpec
	names []string
	terms [][]maskTerm // indexed like ctls
}

// Compile lowers the array to mask form. The per-control term order
// follows the canonical term order of the array, so evaluation is
// deterministic (not that order could change the OR of matches).
func (a *Array) Compile() *Compiled {
	c := &Compiled{
		ctls:  append([]ControlSpec(nil), a.Controls...),
		terms: make([][]maskTerm, len(a.Controls)),
	}
	c.names = make([]string, len(c.ctls))
	for i, sp := range c.ctls {
		c.names[i] = sp.Name
	}
	for _, t := range a.Terms {
		var m maskTerm
		for pos, ch := range t.In {
			if pos >= 64 {
				break // Format.Validate bounds the width at 64
			}
			switch ch {
			case '1':
				m.care |= 1 << uint(pos)
				m.val |= 1 << uint(pos)
			case '0':
				m.care |= 1 << uint(pos)
			}
		}
		for i, on := range t.Outs {
			if on {
				c.terms[i] = append(c.terms[i], m)
			}
		}
	}
	return c
}

// ControlNames lists the control lines in evaluation order — the index
// contract for DecodeInto's out slice.
func (c *Compiled) ControlNames() []string { return c.names }

// Eval computes control i for a microcode word, ignoring phase.
func (c *Compiled) Eval(i int, micro uint64) bool {
	for _, m := range c.terms[i] {
		if micro&m.care == m.val {
			return true
		}
	}
	return false
}

// DecodeInto fills out (indexed per ControlNames) with the control values
// for one phase, without allocating. A control is active only in its
// declared phase, matching the interpreted Result.Decode exactly.
func (c *Compiled) DecodeInto(micro uint64, phase int, out []bool) {
	for i, sp := range c.ctls {
		out[i] = sp.Phase == phase && c.Eval(i, micro)
	}
}

// Decoder adapts the compiled form to the map-based sim.Decoder contract.
// The map allocation per call remains (the contract hands the map to the
// caller), but term matching runs on masks instead of cube bytes.
func (c *Compiled) Decoder() sim.Decoder {
	return func(micro uint64, phase int) map[string]bool {
		out := make(map[string]bool, len(c.ctls))
		for i, sp := range c.ctls {
			out[sp.Name] = sp.Phase == phase && c.Eval(i, micro)
		}
		return out
	}
}
