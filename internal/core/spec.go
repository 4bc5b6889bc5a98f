// Package core is the Bristle Blocks compiler: a three-pass silicon
// compiler ("a core pass, a control pass, and a pad pass") that turns a
// single-page chip description into a complete mask set plus the other
// representations.
package core

import (
	"fmt"
	"strconv"

	"bristleblocks/internal/bus"
	"bristleblocks/internal/decoder"
)

// Spec is the user's chip description. Its three sections follow the
// paper: the microcode format, the data word width and bus list, and the
// element list with parameters. Globals are the conditional-assembly
// booleans (e.g. PROTOTYPE).
type Spec struct {
	Name string
	// Microcode is the instruction format (section 1).
	Microcode *decoder.Format
	// DataWidth is the word width in bits (section 2).
	DataWidth int
	// Buses lists the buses through the core; From/To are element indexes
	// (section 2). Empty means two full-length buses "A" and "B".
	Buses []bus.Spec
	// Elements lists the core elements in order (section 3).
	Elements []ElementSpec
	// Globals are conditional-assembly variables.
	Globals map[string]bool
	// LambdaCentimicrons sets the physical lambda for CIF output (0 =
	// 250 = 2.5 µm).
	LambdaCentimicrons int
	// EvenPads selects the paper's "evenly spaced around the chip" pad
	// mode; false (default) pulls pads toward their connection points.
	EvenPads bool
}

// ElementSpec names one core element and its parameters.
type ElementSpec struct {
	Kind   string
	Name   string
	Params map[string]string
	// OnlyIf optionally names a global; the element is assembled only when
	// that global is true (prefix with '!' for false). This is the paper's
	// conditional assembly.
	OnlyIf string
}

// Param reads a string parameter with a default.
func (e *ElementSpec) Param(key, def string) string {
	if v, ok := e.Params[key]; ok {
		return v
	}
	return def
}

// IntParam reads an integer parameter.
func (e *ElementSpec) IntParam(key string, def int) (int, error) {
	v, ok := e.Params[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("element %s: parameter %s=%q is not an integer", e.Name, key, v)
	}
	return n, nil
}

// Enabled evaluates the element's conditional-assembly guard: an element
// with an OnlyIf guard is assembled only when the named global has the
// wanted value.
func (e *ElementSpec) Enabled(globals map[string]bool) bool {
	if e.OnlyIf == "" {
		return true
	}
	name, want := e.OnlyIf, true
	if name[0] == '!' {
		name, want = name[1:], false
	}
	return globals[name] == want
}

// Validate checks the specification's basic well-formedness.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("chip has no name")
	}
	if s.Microcode == nil {
		return fmt.Errorf("chip %s: no microcode format", s.Name)
	}
	if err := s.Microcode.Validate(); err != nil {
		return fmt.Errorf("chip %s: %w", s.Name, err)
	}
	if s.DataWidth < 1 || s.DataWidth > 64 {
		return fmt.Errorf("chip %s: data width %d out of range 1..64", s.Name, s.DataWidth)
	}
	if len(s.Elements) == 0 {
		return fmt.Errorf("chip %s: no core elements", s.Name)
	}
	seen := make(map[string]bool)
	for i, e := range s.Elements {
		if e.Name == "" {
			return fmt.Errorf("chip %s: element %d has no name", s.Name, i)
		}
		if seen[e.Name] {
			return fmt.Errorf("chip %s: duplicate element name %q", s.Name, e.Name)
		}
		seen[e.Name] = true
		if _, ok := elementKinds[e.Kind]; !ok {
			return fmt.Errorf("chip %s: element %q has unknown kind %q", s.Name, e.Name, e.Kind)
		}
	}
	return nil
}

// busSpecs returns the bus list, defaulting to two full-length buses.
func (s *Spec) busSpecs() []bus.Spec {
	if len(s.Buses) > 0 {
		return s.Buses
	}
	return []bus.Spec{
		{Name: "A", From: 0, To: -1},
		{Name: "B", From: 0, To: -1},
	}
}

func (s *Spec) lambda() int {
	if s.LambdaCentimicrons > 0 {
		return s.LambdaCentimicrons
	}
	return 250
}
